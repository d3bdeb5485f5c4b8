package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
)

// span is one timed interval at a layer boundary. Spans of one benchmark
// operation share Op; Parent is the id of the enclosing span (0 for an
// operation's root span). Times are nanoseconds since the recorder began.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes pay only a nil check.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a span under a reserved id (0 reserves a fresh one).
func (r *recorder) add(name string, id, parent, op int64, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.ids.Add(1)
	}
	s := span{Name: name, ID: id, Parent: parent, Op: op,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanIndex answers the per-layer questions asked of a finished trace.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// selfTime is the part of s during which none of its child spans is open:
// its duration minus the union of the children's intervals clipped to it.
// Children may overlap (callbacks run on parallel workers), so the union,
// not the sum, is subtracted.
func (ix spanIndex) selfTime(s span) time.Duration {
	kids := ix.children[s.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.dur() - time.Duration(covered)
}

// durationsMs lists the durations of the named spans in milliseconds.
func (ix spanIndex) durationsMs(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// timingRegistrar wraps every callback registered through it so each
// execution becomes a span named name under the given parent span.
type timingRegistrar struct {
	core.CallbackRegistrar
	rec        *recorder
	name       string
	parent, op int64
}

func (t timingRegistrar) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	if t.rec == nil {
		return t.CallbackRegistrar.RegisterCallback(cb, fn)
	}
	return t.CallbackRegistrar.RegisterCallback(cb, func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
		start := time.Now()
		out, err := fn(in, id)
		t.rec.add(t.name, 0, t.parent, t.op, start, time.Now())
		return out, err
	})
}

// wireStats accumulates what a tracedTransport observed during one run.
type wireStats struct {
	mu       sync.Mutex
	calls    int
	msgs     int
	bytes    int
	sendUs   []float64
	recvWait time.Duration
}

// tracedTransport times one rank's Send/SendN calls and its blocked
// receive time, and records each send as a span. It forwards the optional
// Shutdown, Kill and LostPeers methods the MPI recovery path and the
// fault-injection wrapper discover by type assertion.
type tracedTransport struct {
	fabric.Transport
	st         *wireStats
	rec        *recorder
	parent, op int64
}

func (t *tracedTransport) Send(m fabric.Message) error {
	return t.SendN([]fabric.Message{m})
}

func (t *tracedTransport) SendN(ms []fabric.Message) error {
	msgs, bytes := 0, 0
	for _, m := range ms {
		if m.From == m.To {
			continue
		}
		msgs++
		bytes += payloadBytes(m.Payload)
	}
	start := time.Now()
	err := t.Transport.SendN(ms)
	end := time.Now()
	t.rec.add("wire.send", 0, t.parent, t.op, start, end)
	t.st.mu.Lock()
	t.st.calls++
	t.st.msgs += msgs
	t.st.bytes += bytes
	t.st.sendUs = append(t.st.sendUs, us(end.Sub(start)))
	t.st.mu.Unlock()
	return err
}

func (t *tracedTransport) Recv(rank int) (fabric.Message, bool) {
	start := time.Now()
	m, ok := t.Transport.Recv(rank)
	t.waited(time.Since(start))
	return m, ok
}

func (t *tracedTransport) RecvBatch(rank int, dst []fabric.Message) (int, bool) {
	start := time.Now()
	n, ok := t.Transport.RecvBatch(rank, dst)
	t.waited(time.Since(start))
	return n, ok
}

func (t *tracedTransport) waited(d time.Duration) {
	t.st.mu.Lock()
	t.st.recvWait += d
	t.st.mu.Unlock()
}

func (t *tracedTransport) Shutdown(timeout time.Duration) error {
	if s, ok := t.Transport.(interface{ Shutdown(time.Duration) error }); ok {
		return s.Shutdown(timeout)
	}
	t.Transport.Cancel()
	return nil
}

func (t *tracedTransport) Kill() {
	if k, ok := t.Transport.(interface{ Kill() }); ok {
		k.Kill()
		return
	}
	t.Transport.Cancel()
}

func (t *tracedTransport) LostPeers() []int {
	if lr, ok := t.Transport.(fabric.LossReporter); ok {
		return lr.LostPeers()
	}
	return nil
}

// payloadBytes is a payload's wire size without serializing it: the
// benchmark's own blobs know their length.
func payloadBytes(p core.Payload) int {
	if p.Data != nil {
		return len(p.Data)
	}
	if b, ok := p.Object.(*blob); ok {
		return len(b.data)
	}
	return 0
}
