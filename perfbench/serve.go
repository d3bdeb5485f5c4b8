package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/serve"
)

// serve-small: an open loop of tiny runs into one resident serve.Server
// (default configuration: in-memory fabric, 4 ranks). Each run does
// microseconds of callback work, so admission, batching, graph setup and
// Service.Submit dispatch dominate; the wire and the use-case kernels are
// bypassed. Three phases: a low and a high fixed rate, then repeated
// bursts of serveBurst submissions queued at once.
const (
	serveLowRate  = 400.0
	serveHighRate = 1500.0
	serveBurst    = 512
	// serveBurstsPerCycle bursts close every cycle.
	serveBurstsPerCycle = 2
	// serveChunkSecs is the length of each rate chunk and serveCycleSecs
	// the approximate length of one cycle (two chunks and the bursts).
	serveChunkSecs = 1.0
	serveCycleSecs = 2.5
	// serveSetups is how many times the server is built and warmed; the
	// median is reported as setup_s and the last server is measured.
	serveSetups = 5
	// serveProbes is the sample count per program of the traced pass's
	// graph-setup probes.
	serveProbes = 300
)

var (
	servePrograms = []string{"reduction", "kwaymerge", "binaryswap"}
	serveParams   = serve.Params{"blocks": 8, "payload": 64}
)

// serveSample is one open-loop submission's outcome.
type serveSample struct {
	latMs, lateMs, submitUs, queueMs, spanMs float64
}

func runServe(e env) (*outcome, error) {
	o := &outcome{}
	reg := serve.DefaultRegistry()
	refs := make(map[string]string, len(servePrograms))
	for _, p := range servePrograms {
		d, err := reg.ReferenceDigest(p, serveParams)
		if err != nil {
			return nil, fmt.Errorf("serve reference %s: %w", p, err)
		}
		refs[p] = d
	}

	// The run is a sequence of cycles, each a low-rate chunk, a high-rate
	// chunk and two bursts, so slow spells of a shared machine fall on every
	// phase alike instead of on whichever phase ran then.
	cycles := max(3, int(e.seconds/serveCycleSecs))
	lowN, highN := int(serveLowRate*serveChunkSecs), int(serveHighRate*serveChunkSecs)
	perCycle := lowN + highN + serveBurstsPerCycle*serveBurst
	// The seeded program mix and Poisson arrival gaps, drawn before any
	// timing.
	rng := data.NewRand(e.seed)
	mix := make([]int, cycles*perCycle)
	gaps := make([]float64, len(mix))
	for i := range mix {
		mix[i] = rng.Intn(len(servePrograms))
		gaps[i] = -math.Log(1 - rng.Float64())
	}

	cfg := serve.Config{
		Registry: reg,
		// Every record must survive until the waiter reads it, and a burst
		// must never shed.
		History:    len(mix) + serveSetups*3*len(servePrograms),
		QueueDepth: serveBurst,
	}
	var srv *serve.Server
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		s, err := serve.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		for round := 0; round < 3; round++ {
			for _, p := range servePrograms {
				st, err := s.Submit(p, serveParams)
				checkServe(o, s, p, refs[p], st, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serveSetups-1 {
			if err := s.Close(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	defer srv.Close()

	// lowChunks[c] and highChunks[c] hold cycle c's latencies.
	var low, high []serveSample
	var lowChunks, highChunks [][]float64
	var rps []float64
	for c := 0; c < cycles; c++ {
		at := c * perCycle
		chunk := serveOpenLoop(e, o, srv, refs, mix[at:at+lowN], gaps[at:at+lowN], serveLowRate)
		low, lowChunks = append(low, chunk...), append(lowChunks, latencies(chunk))
		at += lowN
		chunk = serveOpenLoop(e, o, srv, refs, mix[at:at+highN], gaps[at:at+highN], serveHighRate)
		high, highChunks = append(high, chunk...), append(highChunks, latencies(chunk))
		at += highN
		for b := 0; b < serveBurstsPerCycle; b++ {
			if r, ok := serveBurstOnce(o, srv, refs, mix[at:at+serveBurst]); ok {
				rps = append(rps, r)
			}
			at += serveBurst
		}
	}
	heap := heapMB()
	met := srv.Metrics()

	col := func(xs []serveSample, f func(serveSample) float64) []float64 {
		out := make([]float64, len(xs))
		for i, s := range xs {
			out[i] = f(s)
		}
		return out
	}
	lowLat, highLat := latencies(low), latencies(high)
	// Latency figures are medians over cycles of each cycle's quantile: a
	// cycle that a burst of host contention slowed moves them less than it
	// moves a quantile of the pooled samples.
	o.headlineMs = perChunk(lowChunks, 0.5)
	o.e2e = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"heap_mb":    {heap, "MB"},
		"p50_ms":     {perChunk(lowChunks, 0.5), "ms"},
		"alt_p50_ms": {perChunk(highChunks, 0.5), "ms"},
		"ops_per_s":  {median(rps), "1/s"},
	}
	both := append(append([]serveSample(nil), low...), high...)
	late := col(both, func(s serveSample) float64 { return s.lateMs })
	o.report = []named{
		{"setup_s", median(setups), "s", len(setups)},
		{"heap_mb", heap, "MB", 1},
		{"lat_p50_ms.low", perChunk(lowChunks, 0.5), "ms", len(lowLat)},
		{"lat_p90_ms.low", perChunk(lowChunks, 0.9), "ms", len(lowLat)},
		{"lat_p50_ms.high", perChunk(highChunks, 0.5), "ms", len(highLat)},
		{"lat_p90_ms.high", perChunk(highChunks, 0.9), "ms", len(highLat)},
		{"burst_rps", median(rps), "1/s", len(rps)},
		{"gen_late_ms.p50", median(late), "ms", len(late)},
		{"gen_late_ms.p99", quantile(late, 0.99), "ms", len(late)},
	}
	if met.Shed != 0 {
		o.fail("serve: %d submissions shed", met.Shed)
	}

	if e.rec == nil {
		return o, nil
	}
	o.layer = map[string]metric{
		"serve.submit_us":         {median(col(both, func(s serveSample) float64 { return s.submitUs })), "us"},
		"serve.queue_wait_ms.p50": {median(col(both, func(s serveSample) float64 { return s.queueMs })), "ms"},
		"serve.queue_wait_ms.p99": {quantile(col(both, func(s serveSample) float64 { return s.queueMs }), 0.99), "ms"},
		"serve.makespan_ms.p50":   {median(col(both, func(s serveSample) float64 { return s.spanMs })), "ms"},
		"serve.lat_p99_ms.low":    {quantile(lowLat, 0.99), "ms"},
		"serve.lat_p99_ms.high":   {quantile(highLat, 0.99), "ms"},
		"serve.gen_late_ms.p99":   {quantile(late, 0.99), "ms"},
		"serve.shed":              {float64(met.Shed), "count"},
	}
	stray, err := serveProbe(e, o, reg, refs)
	if err != nil {
		return nil, err
	}
	o.layer["fabric.stray"] = metric{float64(met.StrayFrames + stray), "count"}
	o.spans = e.rec.all()
	return o, nil
}

func latencies(xs []serveSample) []float64 {
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = s.latMs
	}
	return out
}

// perChunk is the median over chunks of each chunk's q-quantile.
func perChunk(chunks [][]float64, q float64) float64 {
	qs := make([]float64, len(chunks))
	for i, c := range chunks {
		qs[i] = quantile(c, q)
	}
	return median(qs)
}

// checkServe waits for a submitted run and checks it finished with the
// reference digest; it returns the final status.
func checkServe(o *outcome, srv *serve.Server, prog, ref string, st serve.RunStatus, err error) (serve.RunStatus, bool) {
	o.attempted++
	if err != nil {
		o.fail("serve: submit %s: %v", prog, err)
		return st, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err = srv.Wait(ctx, st.ID)
	switch {
	case err != nil:
		o.fail("serve: wait %s run %d: %v", prog, st.ID, err)
	case st.State != serve.StateDone:
		o.fail("serve: %s run %d: state %s: %s", prog, st.ID, st.State, st.Error)
	case st.Digest != ref:
		o.fail("serve: %s run %d: digest %s, reference %s", prog, st.ID, st.Digest, ref)
	default:
		return st, true
	}
	return st, false
}

// finished is when the server recorded the run's completion.
func finished(st serve.RunStatus) time.Time {
	return st.Submitted.Add(time.Duration((st.QueueWaitMs + st.MakespanMs) * float64(time.Millisecond)))
}

// serveOpenLoop submits one run per mix entry with Poisson arrivals at the
// given mean rate (gaps are unit-mean exponential draws), timing each from
// its due time to its completion. A generator goroutine submits on
// schedule regardless of completions; this goroutine waits for the runs in
// submission order and reads each completion time from the run record, so
// waiting in order does not delay any measurement.
func serveOpenLoop(e env, o *outcome, srv *serve.Server, refs map[string]string, mix []int, gaps []float64, rate float64) []serveSample {
	type pending struct {
		prog                  string
		due, called, returned time.Time
		st                    serve.RunStatus
		err                   error
	}
	// Sized to every submission, so the generator never waits on the
	// waiter and stays on schedule.
	ch := make(chan pending, len(mix))
	t0 := time.Now()
	go func() {
		defer close(ch)
		offset := 0.0
		for i, pi := range mix {
			offset += gaps[i] / rate
			due := t0.Add(time.Duration(offset * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			p := pending{prog: servePrograms[pi], due: due, called: time.Now()}
			p.st, p.err = srv.Submit(p.prog, serveParams)
			p.returned = time.Now()
			ch <- p
		}
	}()
	out := make([]serveSample, 0, len(mix))
	for p := range ch {
		st, ok := checkServe(o, srv, p.prog, refs[p.prog], p.st, p.err)
		if !ok {
			continue
		}
		fin := finished(st)
		out = append(out, serveSample{
			latMs:    ms(fin.Sub(p.due)),
			lateMs:   ms(p.called.Sub(p.due)),
			submitUs: us(p.returned.Sub(p.called)),
			queueMs:  st.QueueWaitMs,
			spanMs:   st.MakespanMs,
		})
		if e.rec != nil {
			op := e.rec.id()
			started := st.Submitted.Add(time.Duration(st.QueueWaitMs * float64(time.Millisecond)))
			e.rec.add("serve.op", op, 0, op, p.due, fin)
			e.rec.add("serve.gen_late", 0, op, op, p.due, p.called)
			e.rec.add("serve.submit", 0, op, op, p.called, p.returned)
			e.rec.add("serve.queue_wait", 0, op, op, p.returned, started)
			e.rec.add("serve.makespan", 0, op, op, started, fin)
		}
	}
	return out
}

// serveBurstOnce queues every mix entry at once and returns the completion
// rate over the window in which the queue was non-empty: from the first
// submission until the last run left the queue.
func serveBurstOnce(o *outcome, srv *serve.Server, refs map[string]string, mix []int) (float64, bool) {
	start := time.Now()
	sts := make([]serve.RunStatus, len(mix))
	errs := make([]error, len(mix))
	for i, pi := range mix {
		sts[i], errs[i] = srv.Submit(servePrograms[pi], serveParams)
	}
	var fins []time.Time
	var lastStart time.Time
	for i, pi := range mix {
		st, ok := checkServe(o, srv, servePrograms[pi], refs[servePrograms[pi]], sts[i], errs[i])
		if !ok {
			continue
		}
		fins = append(fins, finished(st))
		if s := st.Submitted.Add(time.Duration(st.QueueWaitMs * float64(time.Millisecond))); s.After(lastStart) {
			lastStart = s
		}
	}
	done := 0
	for _, f := range fins {
		if !f.After(lastStart) {
			done++
		}
	}
	window := lastStart.Sub(start)
	if done == 0 || window <= 0 {
		return 0, false
	}
	return float64(done) / window.Seconds(), true
}

// serveProbe times the graph-setup steps a submission goes through, outside
// the server: Registry.Build, core.Validate, core.GraphFingerprint,
// core.ComputeCriticalPaths, and a direct mpi.Service.Submit of the same
// programs on a warm 4-rank service. It returns the service's stray-frame
// count.
func serveProbe(e env, o *outcome, reg *serve.Registry, refs map[string]string) (uint64, error) {
	svc, err := mpi.NewService(4)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	var build, validate, fprint, crit, submit []float64
	for i := 0; i < serveProbes; i++ {
		for _, p := range servePrograms {
			t := time.Now()
			sub, err := reg.Build(p, serveParams)
			build = append(build, us(time.Since(t)))
			if err != nil {
				return 0, err
			}
			g := sub.Graph
			t = time.Now()
			verr := core.Validate(g)
			validate = append(validate, us(time.Since(t)))
			t = time.Now()
			core.GraphFingerprint(g, g.Callbacks())
			fprint = append(fprint, us(time.Since(t)))
			t = time.Now()
			_, cerr := core.ComputeCriticalPaths(g)
			crit = append(crit, us(time.Since(t)))
			if verr != nil || cerr != nil {
				return 0, fmt.Errorf("serve probe %s: validate %v, critical paths %v", p, verr, cerr)
			}

			o.attempted++
			start := time.Now()
			out, _, err := svc.Submit(context.Background(), sub)
			end := time.Now()
			submit = append(submit, us(end.Sub(start)))
			op := e.rec.id()
			e.rec.add("mpi.service_submit", op, 0, op, start, end)
			if err != nil {
				o.fail("service submit %s: %v", p, err)
				continue
			}
			d, err := serve.SinkDigest(out)
			releaseAll(out)
			if err != nil || d != refs[p] {
				o.fail("service submit %s: digest %s (%v), reference %s", p, d, err, refs[p])
			}
		}
	}
	o.layer["serve.build_us"] = metric{median(build), "us"}
	o.layer["core.validate_us"] = metric{median(validate), "us"}
	o.layer["core.fingerprint_us"] = metric{median(fprint), "us"}
	o.layer["core.critical_paths_us"] = metric{median(crit), "us"}
	o.layer["mpi.service_submit_us"] = metric{median(submit), "us"}
	return svc.Stray(), nil
}

// releaseAll drops every sink payload reference.
func releaseAll(out map[core.TaskId][]core.Payload) {
	for _, ps := range out {
		for _, p := range ps {
			p.Release()
		}
	}
}
