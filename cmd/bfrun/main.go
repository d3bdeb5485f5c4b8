// Command bfrun executes one of the paper's three use cases end to end on
// a chosen runtime controller, over synthetic data, and reports timing and
// a correctness check against the serial reference.
//
// Usage:
//
//	bfrun -case mergetree -runtime mpi -shards 8 -n 32
//	bfrun -case render -runtime charm -blocks 8
//	bfrun -case register -runtime legion-spmd
//	bfrun -case register-iter -runtime mpi -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/sim"
	"github.com/babelflow/babelflow-go/internal/trace"
)

func main() {
	var (
		useCase   = flag.String("case", "mergetree", "mergetree | render | register | register-iter")
		runtime   = flag.String("runtime", "mpi", "serial | mpi | original-mpi | charm | legion-spmd | legion-il")
		shards    = flag.Int("shards", 4, "ranks / PEs / shards")
		n         = flag.Int("n", 32, "domain edge length")
		blocks    = flag.Int("blocks", 8, "blocks (power of two)")
		traceTo   = flag.String("trace", "", "write a per-task execution trace (CSV) here")
		whatIfC   = flag.Int("whatif", 0, "with -trace: replay the measured trace on all simulated runtime models at this core count")
		transport = flag.String("transport", "mem", "mem | tcp (tcp forks one worker process per rank)")
		ranks     = flag.Int("ranks", 4, "worker processes for -transport tcp")
		wireRank  = flag.Int("wire-rank", -1, "internal: run as TCP worker for this rank")
		wireAddr  = flag.String("wire-addr", "", "internal: rendezvous address for -wire-rank")
		faults    = flag.Bool("faults", false, "run under fault injection: kill one peer, recover via replay, verify against serial")
		killRank  = flag.Int("kill-rank", 1, "with -faults: the rank to kill")
		killAfter = flag.Int("kill-after", 0, "with -faults: inter-rank messages the victim sends before dying")
		journal   = flag.String("journal", "", "with -transport tcp: persist per-rank lineage journals under this directory")
		resume    = flag.String("resume", "", "restart a crashed -journal run from its directory over TCP and verify sink digests against serial")
		killAll   = flag.Int("kill-all-after", -1, "with -journal: kill EVERY rank (including rank 0) after it sends this many inter-rank messages, seeding a resumable crash")
		wireKill  = flag.Int("wire-kill-after", -1, "internal: worker kills its own transport after this many inter-rank sends")
		wireJnl   = flag.String("wire-journal", "", "internal: worker journal directory")
		wireTier  = flag.String("wire-tier", "auto", "with -transport tcp: transport between co-located ranks (auto | tcp | unix | shm)")
		elastic   = flag.Bool("elastic", false, "run with elastic membership: fork -ranks workers, join -join more mid-run, drain member -drain, verify digests against serial")
		joinN     = flag.Int("join", 0, "with -elastic: workers to join mid-run")
		joinAfter = flag.Duration("join-after", 150*time.Millisecond, "with -elastic: when the joiners are forked")
		drainM    = flag.Int("drain", -1, "with -elastic: member to gracefully drain mid-run (-1 none)")
		drainAft  = flag.Duration("drain-after", 400*time.Millisecond, "with -elastic: when the drain request is sent")
		pace      = flag.Duration("elastic-pace", 20*time.Millisecond, "with -elastic: per-task delay so membership events land mid-run")
		wireGate  = flag.String("wire-gate", "", "internal: run as elastic worker against this membership gate")
	)
	flag.Parse()
	traceCSV = *traceTo
	whatIfCores = *whatIfC

	if *wireGate != "" {
		runElasticWorker(*useCase, *wireGate, *wireTier, *ranks, *n, *blocks, *wireJnl, *pace)
		return
	}
	if *elastic {
		runElasticParent(*useCase, *ranks, *joinN, *joinAfter, *drainM, *drainAft, *n, *blocks, *wireTier, *journal, *pace)
		return
	}
	if *wireRank >= 0 {
		runWireWorker(*useCase, *wireRank, *ranks, *wireAddr, *wireTier, *n, *blocks, *wireJnl, *wireKill)
		return
	}
	if *faults {
		uc := *useCase
		if !isFlagSet("case") {
			uc = "all"
		}
		runFaults(uc, *ranks, *n, *blocks, *killRank, *killAfter)
		return
	}
	if *resume != "" {
		runWireParent(*useCase, *runtime, *ranks, *n, *blocks, *wireTier, *resume, -1, true)
		return
	}
	if *transport == "tcp" || *journal != "" {
		runWireParent(*useCase, *runtime, *ranks, *n, *blocks, *wireTier, *journal, *killAll, false)
		return
	}
	if *transport != "mem" {
		log.Fatalf("bfrun: unknown transport %q", *transport)
	}

	switch *useCase {
	case "mergetree":
		runMergeTree(*runtime, *shards, *n, *blocks)
	case "render":
		runRender(*runtime, *shards, *n, *blocks)
	case "register":
		runRegister(*runtime, *shards)
	case "register-iter":
		runRegisterIter(*runtime, *shards)
	default:
		log.Fatalf("bfrun: unknown use case %q", *useCase)
	}
}

// isFlagSet reports whether the user passed the named flag explicitly.
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// controller builds the named runtime controller over shards, reporting
// every executed task to obs when it is not nil.
func controller(rt string, shards int, obs babelflow.Observer) babelflow.Controller {
	switch rt {
	case "serial":
		return babelflow.NewSerial()
	case "mpi":
		return babelflow.NewMPI(babelflow.WithObserver(obs))
	case "original-mpi":
		return babelflow.NewMPI(babelflow.WithInline(true), babelflow.WithObserver(obs))
	case "charm":
		return babelflow.NewCharm(babelflow.CharmOptions{PEs: shards, LBPeriod: 8, Observer: obs})
	case "legion-spmd":
		return babelflow.NewLegionSPMD(babelflow.LegionOptions{Observer: obs})
	case "legion-il":
		return babelflow.NewLegionIndexLaunch(babelflow.LegionOptions{Observer: obs})
	}
	log.Fatalf("bfrun: unknown runtime %q", rt)
	return nil
}

// traceCSV, when set, receives the per-task execution trace of the run.
var traceCSV string

// whatIfCores, when set together with traceCSV, replays the measured trace
// under every simulated runtime model at that core count.
var whatIfCores int

// instrument wraps a controller's callbacks with the recorder when tracing
// is on; register goes through it.
func maybeTrace(rt string, shards int) (*trace.Recorder, babelflow.Controller) {
	if traceCSV == "" {
		return nil, controller(rt, shards, nil)
	}
	rec := trace.NewRecorder()
	return rec, controller(rt, shards, rec)
}

// writeTrace dumps the recorded spans and prints the trace summary.
func writeTrace(rec *trace.Recorder, g babelflow.TaskGraph) {
	if rec == nil {
		return
	}
	f, err := os.Create(traceCSV)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	spans := rec.Spans()
	if err := trace.WriteCSV(f, spans); err != nil {
		log.Fatal(err)
	}
	sum, err := trace.Summarize(g, spans)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d spans -> %s  wall=%v critical-path=%v utilization=%.2f\n",
		sum.Tasks, traceCSV, sum.Wall.Round(time.Microsecond),
		sum.CriticalPath.Round(time.Microsecond), sum.Utilization())
	if whatIfCores > 0 {
		results, err := sim.WhatIf(g, spans, nil, sim.ShaheenII(whatIfCores))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("what-if on %d simulated cores:\n", whatIfCores)
		for _, name := range []string{"IceT", "MPI", "Original MPI", "Charm++", "Legion", "Legion IL"} {
			fmt.Printf("  %-14s %8.3fs (compute %.3fs, overhead %.3fs)\n",
				name, results[name].Makespan, results[name].Compute, results[name].Overhead)
		}
	}
}

func runMergeTree(rt string, shards, n, blocks int) {
	field := data.SyntheticHCCI(n, n, n, 8, 2026)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := mergetree.NewGraph(blocks, 2)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	rec, c := maybeTrace(rt, shards)
	if err := c.Initialize(graph, babelflow.NewGraphMap(shards, graph)); err != nil {
		log.Fatal(err)
	}
	if rec == nil {
		if err := cfg.Register(c, graph); err != nil {
			log.Fatal(err)
		}
	} else {
		if err := cfg.Register(tracedController{c, rec}, graph); err != nil {
			log.Fatal(err)
		}
	}
	initial, err := cfg.InitialInputs(field, graph)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := c.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	want := mergetree.SerialSegmentation(field, cfg.Threshold)
	mismatches, labeled := 0, 0
	features := make(map[uint64]bool)
	for i := 0; i < blocks; i++ {
		wire, _ := out[graph.SegmentationTask(i)][0].Wire()
		seg, err := mergetree.DeserializeSegmentation(wire)
		if err != nil {
			log.Fatal(err)
		}
		for vid, rep := range seg.Labels {
			labeled++
			features[rep] = true
			if want[vid] != rep {
				mismatches++
			}
		}
	}
	fmt.Printf("mergetree %-12s %d tasks, %d shards: %v  features=%d labeled=%d mismatches=%d\n",
		rt, graph.Size(), shards, elapsed.Round(time.Millisecond), len(features), labeled, mismatches)
	writeTrace(rec, graph)
}

// tracedController interposes the recorder's Wrap on every registered
// callback.
type tracedController struct {
	babelflow.Controller
	rec *trace.Recorder
}

func (t tracedController) RegisterCallback(cb babelflow.CallbackId, fn babelflow.Callback) error {
	return t.Controller.RegisterCallback(cb, t.rec.Wrap(cb, fn))
}

func runRender(rt string, shards, n, blocks int) {
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		log.Fatal(err)
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: n, Height: n},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}
	graph, err := graphs.NewReduction(blocks, 2)
	if err != nil {
		log.Fatal(err)
	}
	c := controller(rt, shards, nil)
	if err := c.Initialize(graph, babelflow.NewModuloMap(shards, graph.Size())); err != nil {
		log.Fatal(err)
	}
	if err := cfg.RegisterReduction(c, graph); err != nil {
		log.Fatal(err)
	}
	initial, err := cfg.InitialInputs(field, graph.LeafIds())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := c.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	wire, _ := out[graph.Root()][0].Wire()
	frame, err := render.DeserializeImage(wire)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := render.NewIceT(cfg).RenderAndCompositeTree(field)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("render    %-12s %d tasks, %d shards: %v  matches-icet=%v\n",
		rt, graph.Size(), shards, elapsed.Round(time.Millisecond), frame.Equal(direct))
}

func runRegister(rt string, shards int) {
	cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.2, Jitter: 2}
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
	graph, err := cfg.Graph()
	if err != nil {
		log.Fatal(err)
	}
	c := controller(rt, shards, nil)
	if err := c.Initialize(graph, babelflow.NewModuloMap(shards, graph.Size())); err != nil {
		log.Fatal(err)
	}
	if err := cfg.Register(c, graph); err != nil {
		log.Fatal(err)
	}
	initial, err := cfg.InitialInputs(graph, tiles)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := c.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var ests []register.Estimate
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			wire, _ := out[graph.ProcessId(x, y)][0].Wire()
			e, err := register.DeserializeEstimate(wire)
			if err != nil {
				log.Fatal(err)
			}
			ests = append(ests, e)
		}
	}
	pos, err := register.Solve(cfg.GridW, cfg.GridH, ests)
	if err != nil {
		log.Fatal(err)
	}
	exact := 0
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			tl := tiles[y*cfg.GridW+x]
			if (pos[y][x] == register.Position{X: tl.TrueX - tiles[0].TrueX, Y: tl.TrueY - tiles[0].TrueY}) {
				exact++
			}
		}
	}
	fmt.Printf("register  %-12s %d tasks, %d shards: %v  exact=%d/%d\n",
		rt, graph.Size(), shards, elapsed.Round(time.Millisecond), exact, len(tiles))
}

// runRegisterIter runs the iterative registration refinement: the
// registration dataflow unrolled under core.Iterate, converging once the
// pairwise estimates stop moving. The solved positions must still match
// the ground truth exactly.
func runRegisterIter(rt string, shards int) {
	cfg := register.Config{GridW: 3, GridH: 3, Tile: 24, Overlap: 0.2, Jitter: 2}
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, 5)
	ig, err := cfg.Iterative(8)
	if err != nil {
		log.Fatal(err)
	}
	c := controller(rt, shards, nil)
	if err := c.Initialize(ig, babelflow.NewIterativeMap(shards, ig)); err != nil {
		log.Fatal(err)
	}
	if err := cfg.RegisterIter(c, ig); err != nil {
		log.Fatal(err)
	}
	initial, err := cfg.IterInitial(tiles)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := c.Run(initial)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	iter, sinks, err := ig.Final(out)
	if err != nil {
		log.Fatal(err)
	}
	ests, err := cfg.IterEstimates(sinks)
	if err != nil {
		log.Fatal(err)
	}
	pos, err := register.Solve(cfg.GridW, cfg.GridH, ests)
	if err != nil {
		log.Fatal(err)
	}
	exact := 0
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			tl := tiles[y*cfg.GridW+x]
			if (pos[y][x] == register.Position{X: tl.TrueX - tiles[0].TrueX, Y: tl.TrueY - tiles[0].TrueY}) {
				exact++
			}
		}
	}
	fmt.Printf("register-iter %-12s %d tasks, %d shards: %v  converged=%d/%d exact=%d/%d\n",
		rt, ig.Size(), shards, elapsed.Round(time.Millisecond), iter+1, ig.MaxIter(), exact, len(tiles))
}
