// Command perfbench is the repository benchmark. It drives the BabelFlow
// runtime through its public Go API from a single process, checks every
// output against a serial or analytic reference, and prints one JSON result
// line.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload serve-small|usecase-batch|mesh-recover --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation. With --trace 1 the workload runs twice, untraced and
// then traced; the result carries the per-layer metrics computed from the
// traced pass's spans plus the tracing overhead (traced minus untraced
// headline median). Spans are kept in memory and written to
// .bench_build/traces/ when the run ends.
//
// Every line but the last is a human-readable report (host metadata, each
// named metric with its unit and sample count, the failed-op share); the
// last line is the machine-readable result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one metric of the human-readable report: the value, its unit
// and how many samples it summarizes.
type named struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// outcome is what a workload pass returns.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics every workload reports (see
	// BENCHMARK.json); layer holds the per-layer metrics of a traced pass.
	e2e   map[string]metric
	layer map[string]metric
	// report lists the workload's own named metrics with sample counts.
	report []named
	// headlineMs is the median the tracing overhead is taken on.
	headlineMs float64
	spans      []span
	// failures holds the first few failure descriptions.
	failures []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// env is what every workload pass receives.
type env struct {
	seed    uint64
	seconds float64
	// rec is nil on untraced passes.
	rec *recorder
	// dir is a private scratch directory inside the checkout.
	dir string
}

type workload func(e env) (*outcome, error)

var workloads = map[string]workload{
	"serve-small":   runServe,
	"usecase-batch": runUsecase,
	"mesh-recover":  runMesh,
}

// endToEnd lists the metrics every workload reports with --trace 0, in the
// order of BENCHMARK.json. p50_ms is the median of the workload's primary
// operation class and alt_p50_ms that of its secondary class; ops_per_s is
// the throughput of its saturating phase (see README.md for the mapping).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"p50_ms", "ms"},
	{"alt_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists every per-layer metric a traced run reports, with units. A
// layer the workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
	{"serve.submit_us", "us"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.makespan_ms.p50", "ms"},
	{"serve.lat_p99_ms.low", "ms"},
	{"serve.lat_p99_ms.high", "ms"},
	{"serve.gen_late_ms.p99", "ms"},
	{"serve.shed", "count"},
	{"serve.build_us", "us"},
	{"mpi.service_submit_us", "us"},
	{"core.validate_us", "us"},
	{"core.fingerprint_us", "us"},
	{"core.critical_paths_us", "us"},
	{"mpi.initialize_ms", "ms"},
	{"mpi.run_ms", "ms"},
	{"mpi.run_self_ms", "ms"},
	{"fabric.msgs", "count"},
	{"fabric.bytes", "B"},
	{"fabric.stray", "count"},
	{"mergetree.cb_ms", "ms"},
	{"render.cb_ms", "ms"},
	{"register.cb_ms", "ms"},
	{"cb.calls", "count"},
	{"charm.run_self_ms", "ms"},
	{"legion.spmd_run_self_ms", "ms"},
	{"legion.il_run_self_ms", "ms"},
	{"payload.serialize_calls", "count"},
	{"payload.serialize_bytes", "B"},
	{"payload.serialize_us", "us"},
	{"wire.mesh_ms", "ms"},
	{"wire.send_calls", "count"},
	{"wire.send_msgs", "count"},
	{"wire.send_bytes", "B"},
	{"wire.send_us.p50", "us"},
	{"wire.recv_wait_ms", "ms"},
	{"journal.bytes", "B"},
	{"journal.segments", "count"},
	{"journal.store_errors", "count"},
	{"journal.overhead_ms", "ms"},
	{"recover.recovery_ms", "ms"},
	{"recover.epochs", "count"},
	{"recover.replayed", "count"},
	{"recover.total_executed", "count"},
	{"recover.useful_ratio", "ratio"},
}

func main() {
	name := flag.String("workload", "", "serve-small | usecase-batch | mesh-recover")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := run(*name, wl, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, wl workload, seed uint64, seconds float64, traced bool) error {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	printHost(name, seed, seconds, traced)

	e := env{seed: seed, seconds: seconds, dir: dir}
	res := result{Metrics: map[string]metric{}}
	var out *outcome
	if !traced {
		if out, err = wl(e); err != nil {
			return err
		}
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				return fmt.Errorf("%s: metric %s not measured", name, m.name)
			}
			res.Metrics[m.name] = v
		}
	} else {
		// The untraced pass gives the baseline the overhead is taken
		// against; both passes get half the time.
		e.seconds = seconds / 2
		plain, err := wl(e)
		if err != nil {
			return err
		}
		e.rec = newRecorder()
		if out, err = wl(e); err != nil {
			return err
		}
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.failures = append(plain.failures, out.failures...)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
		for k, v := range out.layer {
			if _, ok := res.Metrics[k]; !ok {
				return fmt.Errorf("%s: unlisted per-layer metric %s", name, k)
			}
			res.Metrics[k] = v
		}
		res.Metrics["trace.overhead_ms"] = metric{out.headlineMs - plain.headlineMs, "ms"}
		res.Metrics["trace.spans"] = metric{float64(len(out.spans)), "count"}
		path, err := writeSpans(name, seed, out.spans)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(out.spans), path)
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	for _, f := range out.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	printReport(name, out)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printHost records the machine and build the result was measured on.
func printHost(name string, seed uint64, seconds float64, traced bool) {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	host, _ := os.Hostname()
	meta := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"host":       host,
		"commit":     commit + modified,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("host: %s\n", b)
}

// printReport prints the workload's named metrics and the failed-op share.
func printReport(name string, o *outcome) {
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%s: attempted=%d failed=%d failed_share=%.4f\n", name, o.attempted, o.failed, share)
	for _, n := range o.report {
		fmt.Printf("  %-24s %12.4f %-6s n=%d\n", n.Name, n.Value, n.Unit, n.Samples)
	}
}

func writeSpans(name string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapMB forces a collection and returns the live heap in MiB. The second
// collection empties the sync.Pool victim caches the first one filled.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// timeUp reports whether the pass's measured time has been spent.
func timeUp(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
