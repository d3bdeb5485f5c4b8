package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestServerDrainAdmission covers the drain admission contract: pinned
// submissions to a draining rank are shed with ErrDraining, unpinned
// submissions are remapped onto healthy ranks (with byte-identical
// digests), and the metrics mirror the draining set and hand-off counts.
func TestServerDrainAdmission(t *testing.T) {
	reg := DefaultRegistry()
	want, err := reg.ReferenceDigest("reduction", Params{"blocks": 8, "payload": 32})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Drain(1); err != nil {
		t.Fatalf("drain 1: %v", err)
	}
	if err := s.Drain(1); err != nil {
		t.Fatalf("drain is not idempotent: %v", err)
	}
	if err := s.Drain(0); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining the last rank: got %v, want ErrDraining", err)
	}
	// Nothing runs on rank 1, so its fence closes inside Drain.
	if m := s.Metrics(); m.DrainFences != 0 || m.Drains == 0 {
		t.Fatalf("drain of an idle rank: fences=%d drains=%d, want 0 in flight and a completed drain", m.DrainFences, m.Drains)
	}

	// Pinned to the draining rank: shed at admission, typed.
	if _, err := s.Submit("reduction", Params{"blocks": 8, "payload": 32, "pin": 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("pin to draining rank: got %v, want ErrDraining", err)
	}

	// Pinned to a healthy rank: runs, and matches the serial reference.
	st := submitAndWait(t, s, "reduction", Params{"blocks": 8, "payload": 32, "pin": 0})
	if st.State != StateDone || st.Digest != want {
		t.Fatalf("pinned run: state %s digest %s (want done/%s): %s", st.State, st.Digest, want, st.Error)
	}

	// Unpinned: the placement layer hands the run off the draining rank.
	st = submitAndWait(t, s, "reduction", Params{"blocks": 8, "payload": 32})
	if st.State != StateDone || st.Digest != want {
		t.Fatalf("remapped run: state %s digest %s (want done/%s): %s", st.State, st.Digest, want, st.Error)
	}

	m := s.Metrics()
	if len(m.DrainingRanks) != 1 || m.DrainingRanks[0] != 1 {
		t.Fatalf("draining ranks %v, want [1]", m.DrainingRanks)
	}
	if m.HandoffRuns == 0 || m.HandoffTasks == 0 {
		t.Fatalf("hand-off counters not advanced: runs=%d tasks=%d", m.HandoffRuns, m.HandoffTasks)
	}

	if err := s.Undrain(1); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	if d := s.Draining(); len(d) != 0 {
		t.Fatalf("draining set after undrain: %v", d)
	}
	if _, err := s.Submit("reduction", Params{"blocks": 8, "payload": 32, "pin": 2}); err == nil {
		t.Fatal("pin outside the fabric was admitted")
	}
}

// TestServerDrainHTTP drives the drain flow over the control plane:
// POST /drain marks the rank, /healthz reports degraded while the fence is
// in flight, a racing pinned submission gets 429 + Retry-After, and the
// fence latency lands in /metrics once the rank quiesces.
func TestServerDrainHTTP(t *testing.T) {
	s, err := NewServer(Config{Ranks: 2, Registry: slowRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			json.NewEncoder(&buf).Encode(body)
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// Park a run on rank 1 so the drain fence stays open long enough to
	// observe the degraded health state.
	resp, body := post("/submit", SubmitRequest{Program: "slow", Params: Params{"sleep_ms": 300, "pin": 1}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var queued RunStatus
	json.Unmarshal(body, &queued)

	// Give an executor a moment to move the run onto the fabric.
	deadline := time.Now().Add(2 * time.Second)
	for s.svc.RankActive(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned run never became active on rank 1")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if resp, body = post("/drain/1", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/drain/9", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("drain of bogus rank: %d %s", resp.StatusCode, body)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining []int  `json:"draining"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if health.Status != "degraded" {
		t.Fatalf("healthz during fence: %q, want degraded", health.Status)
	}
	if len(health.Draining) != 1 || health.Draining[0] != 1 {
		t.Fatalf("healthz draining %v, want [1]", health.Draining)
	}

	// A submission racing the fence onto the draining rank is shed, typed.
	resp, body = post("/submit", SubmitRequest{Program: "slow", Params: Params{"pin": 1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pinned submit during drain: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Wait out the parked run. It was the rank's last, so its completion
	// closes the fence before Wait returns: no later run or timer is needed.
	if _, err := s.Wait(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
	if s.Fencing() {
		t.Fatal("drain fence still open after the rank's last run finished")
	}
	m := s.Metrics()
	if m.Drains != 1 || m.DrainLatencyMs <= 0 {
		t.Fatalf("drain metrics: drains=%d latency=%vms", m.Drains, m.DrainLatencyMs)
	}
	if resp, body = post("/undrain/1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: %d %s", resp.StatusCode, body)
	}
}
