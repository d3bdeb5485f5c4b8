package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/babelflow/babelflow-go/internal/charm"
	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
	"github.com/babelflow/babelflow-go/internal/legion"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
)

// usecase-batch: a closed loop, one run at a time, over the paper's three
// use cases at fixed sizes on each of the four paper controllers with 4
// shards. Callbacks dominate, so kernel, scheduler and payload-clone
// changes show here; admission and the wire are bypassed.
const (
	ucShards = 4
	// ucSetups is how many warm-up rounds (every use case on every
	// controller once) make up set-up; their median is setup_s.
	ucSetups = 3
	// ucVariants is how many seeded inputs each use case cycles through,
	// one per round, so a run's medians do not hinge on one input.
	ucVariants = 4
)

// useCase is one of the paper's use cases with its inputs, built from the
// seed, and its self-check.
type useCase struct {
	name     string
	graph    core.TaskGraph
	tmap     core.TaskMap
	register func(c core.CallbackRegistrar) error
	// inputs builds a fresh set of external inputs (runs consume them).
	inputs func() (map[core.TaskId][]core.Payload, error)
	check  func(out map[core.TaskId][]core.Payload) error
}

// ucController is one paper runtime.
type ucController struct {
	name string
	make func() core.Controller
}

var ucControllers = []ucController{
	{"mpi", func() core.Controller { return mpi.New() }},
	{"charm", func() core.Controller { return charm.New(charm.Options{PEs: ucShards, LBPeriod: 8}) }},
	{"legion-spmd", func() core.Controller { return legion.NewSPMD(legion.Options{}) }},
	{"legion-il", func() core.Controller { return legion.NewIndexLaunch(legion.Options{}) }},
}

// shiftedField is a fixed synthetic field (shape seeds the feature
// placement) circularly shifted by a seeded offset. The field is periodic,
// so every seed yields different block contents with the same features:
// the seed varies the data but not the amount of work, which a fresh
// feature placement per seed would (merge-tree cost varies up to 2x
// between placements).
func shiftedField(n, features int, shape, seed uint64) *data.Field {
	base := data.SyntheticHCCI(n, n, n, features, shape)
	rng := data.NewRand(seed)
	dx, dy, dz := rng.Intn(n), rng.Intn(n), rng.Intn(n)
	f := data.NewField(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				f.Set(x, y, z, base.At((x+dx)%n, (y+dy)%n, (z+dz)%n))
			}
		}
	}
	return f
}

func mergetreeCase(seed uint64) (useCase, error) {
	const n, blocks = 64, 16
	field := shiftedField(n, 8, 2026, seed)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		return useCase{}, err
	}
	graph, err := mergetree.NewGraph(blocks, 2)
	if err != nil {
		return useCase{}, err
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	want := mergetree.SerialSegmentation(field, cfg.Threshold)
	return useCase{
		name:     "mergetree",
		graph:    graph,
		tmap:     core.NewGraphMap(ucShards, graph),
		register: func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
		inputs:   func() (map[core.TaskId][]core.Payload, error) { return cfg.InitialInputs(field, graph) },
		check: func(out map[core.TaskId][]core.Payload) error {
			mismatches := 0
			labeled := make(map[uint64]bool, len(want))
			for i := 0; i < blocks; i++ {
				ps := out[graph.SegmentationTask(i)]
				if len(ps) == 0 {
					return fmt.Errorf("segmentation %d missing", i)
				}
				w, err := ps[0].Wire()
				if err != nil {
					return err
				}
				seg, err := mergetree.DeserializeSegmentation(w)
				if err != nil {
					return err
				}
				for vid, rep := range seg.Labels {
					labeled[vid] = true
					if want[vid] != rep {
						mismatches++
					}
				}
			}
			// Ghost vertices are labeled by more than one block; every
			// label must agree and every feature vertex must be covered.
			if mismatches != 0 || len(labeled) != len(want) {
				return fmt.Errorf("%d labels mismatch the serial segmentation, %d of %d vertices labeled", mismatches, len(labeled), len(want))
			}
			return nil
		},
	}, nil
}

func renderCase(seed uint64) (useCase, error) {
	const n, blocks = 128, 16
	field := shiftedField(n, 6, 7, seed)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, blocks/4)
	if err != nil {
		return useCase{}, err
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: n, Height: n},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}
	graph, err := graphs.NewReduction(blocks, 2)
	if err != nil {
		return useCase{}, err
	}
	direct, err := render.NewIceT(cfg).RenderAndCompositeTree(field)
	if err != nil {
		return useCase{}, err
	}
	return useCase{
		name:     "render",
		graph:    graph,
		tmap:     core.NewModuloMap(ucShards, graph.Size()),
		register: func(c core.CallbackRegistrar) error { return cfg.RegisterReduction(c, graph) },
		inputs:   func() (map[core.TaskId][]core.Payload, error) { return cfg.InitialInputs(field, graph.LeafIds()) },
		check: func(out map[core.TaskId][]core.Payload) error {
			ps := out[graph.Root()]
			if len(ps) == 0 {
				return fmt.Errorf("no composited frame")
			}
			w, err := ps[0].Wire()
			if err != nil {
				return err
			}
			frame, err := render.DeserializeImage(w)
			if err != nil {
				return err
			}
			if !frame.Equal(direct) {
				return fmt.Errorf("frame differs from the IceT composite")
			}
			return nil
		},
	}, nil
}

func registerCase(seed uint64) (useCase, error) {
	cfg := register.Config{GridW: 4, GridH: 4, Tile: 32, Overlap: 0.2, Jitter: 2}
	tiles := data.BrainSpecimen(cfg.GridW, cfg.GridH, cfg.Tile, cfg.Overlap, cfg.Jitter, seed)
	graph, err := cfg.Graph()
	if err != nil {
		return useCase{}, err
	}
	return useCase{
		name:     "register",
		graph:    graph,
		tmap:     core.NewModuloMap(ucShards, graph.Size()),
		register: func(c core.CallbackRegistrar) error { return cfg.Register(c, graph) },
		inputs:   func() (map[core.TaskId][]core.Payload, error) { return cfg.InitialInputs(graph, tiles) },
		check: func(out map[core.TaskId][]core.Payload) error {
			var ests []register.Estimate
			for y := 0; y < cfg.GridH; y++ {
				for x := 0; x < cfg.GridW; x++ {
					ps := out[graph.ProcessId(x, y)]
					if len(ps) == 0 {
						return fmt.Errorf("estimate (%d,%d) missing", x, y)
					}
					w, err := ps[0].Wire()
					if err != nil {
						return err
					}
					est, err := register.DeserializeEstimate(w)
					if err != nil {
						return err
					}
					ests = append(ests, est)
				}
			}
			pos, err := register.Solve(cfg.GridW, cfg.GridH, ests)
			if err != nil {
				return err
			}
			for y := 0; y < cfg.GridH; y++ {
				for x := 0; x < cfg.GridW; x++ {
					tl := tiles[y*cfg.GridW+x]
					want := register.Position{X: tl.TrueX - tiles[0].TrueX, Y: tl.TrueY - tiles[0].TrueY}
					if pos[y][x] != want {
						return fmt.Errorf("tile (%d,%d) placed at %v, true offset %v", x, y, pos[y][x], want)
					}
				}
			}
			return nil
		},
	}, nil
}

// ucOp is one timed run's record.
type ucOp struct {
	uc, ctrl string
	round    int
	wallMs   float64
	// root is the op's span id; run its Run span (traced passes only).
	root, run int64
	msgs      uint64
	bytes     uint64
}

// runUseCaseOnce runs one use case on one controller as Initialize +
// RegisterCallbacks + Run, timing those three steps only, and checks the
// result.
func runUseCaseOnce(e env, o *outcome, uc useCase, ctl ucController) (ucOp, bool) {
	o.attempted++
	initial, err := uc.inputs()
	if err != nil {
		o.fail("%s inputs: %v", uc.name, err)
		return ucOp{}, false
	}
	op := ucOp{uc: uc.name, ctrl: ctl.name, root: e.rec.id(), run: e.rec.id()}
	start := time.Now()
	c := ctl.make()
	err = c.Initialize(uc.graph, uc.tmap)
	initEnd := time.Now()
	if err == nil {
		err = uc.register(timingRegistrar{CallbackRegistrar: c, rec: e.rec, name: "cb." + uc.name, parent: op.run, op: op.root})
	}
	regEnd := time.Now()
	var out map[core.TaskId][]core.Payload
	if err == nil {
		out, err = c.Run(initial)
	}
	end := time.Now()
	op.wallMs = ms(end.Sub(start))
	if e.rec != nil {
		e.rec.add(ctl.name+".op", op.root, 0, op.root, start, end)
		e.rec.add(ctl.name+".initialize", 0, op.root, op.root, start, initEnd)
		e.rec.add(ctl.name+".register", 0, op.root, op.root, initEnd, regEnd)
		e.rec.add(ctl.name+".run", op.run, op.root, op.root, regEnd, end)
	}
	if err != nil {
		o.fail("%s on %s: %v", uc.name, ctl.name, err)
		return op, false
	}
	if st, ok := c.(interface{ Stats() fabric.Stats }); ok {
		s := st.Stats()
		op.msgs, op.bytes = s.Messages, s.Bytes
	}
	err = uc.check(out)
	releaseAll(out)
	if err != nil {
		o.fail("%s on %s: %v", uc.name, ctl.name, err)
		return op, false
	}
	return op, true
}

func runUsecase(e env) (*outcome, error) {
	o := &outcome{}
	// variants[k][v] is input variant v of use case k.
	var variants [][]useCase
	for k, mk := range []func(uint64) (useCase, error){mergetreeCase, renderCase, registerCase} {
		var vs []useCase
		for v := 0; v < ucVariants; v++ {
			uc, err := mk((e.seed*3+uint64(k))*ucVariants + uint64(v))
			if err != nil {
				return nil, err
			}
			vs = append(vs, uc)
		}
		variants = append(variants, vs)
	}
	names := make([]string, len(variants))
	for k, vs := range variants {
		names[k] = vs[0].name
	}

	round := func(e env, r int, record func(ucOp)) {
		for _, ctl := range ucControllers {
			for _, vs := range variants {
				if op, ok := runUseCaseOnce(e, o, vs[r%ucVariants], ctl); ok {
					op.round = r
					record(op)
				}
			}
		}
	}
	// Set-up rounds are untraced and unmeasured; their checks still count.
	warm := e
	warm.rec = nil
	var setups []float64
	for i := 0; i < ucSetups; i++ {
		start := time.Now()
		round(warm, i, func(ucOp) {})
		setups = append(setups, time.Since(start).Seconds())
	}

	var ops []ucOp
	rounds := 0
	start := time.Now()
	for rounds < ucVariants || !timeUp(start, e.seconds) {
		round(e, rounds, func(op ucOp) { ops = append(ops, op) })
		rounds++
	}
	elapsed := time.Since(start).Seconds()
	heap := heapMB()
	// The inputs stay resident through the measurement, as a long-lived
	// analysis holds its data; heap_mb counts them.
	runtime.KeepAlive(variants)

	// wallQ is a use case's q-quantile wall clock on one controller: the
	// mean over input variants of each variant's own quantile, so the
	// figure does not jump between variants the way a pooled quantile of a
	// mixture can.
	wallQ := func(uc, ctrl string, q float64) (float64, int) {
		sum, n := 0.0, 0
		for v := 0; v < ucVariants; v++ {
			var xs []float64
			for _, op := range ops {
				if op.uc == uc && op.ctrl == ctrl && op.round%ucVariants == v {
					xs = append(xs, op.wallMs)
				}
			}
			sum += quantile(xs, q)
			n += len(xs)
		}
		return sum / ucVariants, n
	}
	sumQ := func(ctrls []string, q float64) float64 {
		s := 0.0
		for _, c := range ctrls {
			for _, name := range names {
				v, _ := wallQ(name, c, q)
				s += v
			}
		}
		return s
	}
	primary := []string{"mpi"}
	alt := []string{"charm", "legion-spmd", "legion-il"}
	o.headlineMs = sumQ(primary, 0.5)
	o.e2e = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"heap_mb":    {heap, "MB"},
		"p50_ms":     {sumQ(primary, 0.5), "ms"},
		"alt_p50_ms": {sumQ(alt, 0.5), "ms"},
		"ops_per_s":  {float64(len(ops)) / elapsed, "1/s"},
	}
	o.report = []named{
		{"setup_s", median(setups), "s", len(setups)},
		{"heap_mb", heap, "MB", 1},
	}
	for _, name := range names {
		v, n := wallQ(name, "mpi", 0.5)
		o.report = append(o.report, named{name + "_ms", v, "ms", n})
	}
	for _, c := range alt {
		o.report = append(o.report, named{strings.ReplaceAll(c, "-", "_") + "_ms", sumQ([]string{c}, 0.5), "ms", rounds})
	}

	if e.rec == nil {
		return o, nil
	}
	o.spans = e.rec.all()
	ix := indexSpans(o.spans)
	byID := map[int64]span{}
	for _, s := range o.spans {
		byID[s.ID] = s
	}
	// Layer figures are per round: summed over the three use cases (the
	// kernels' are per run), then the median over rounds.
	perRound := func(ctrl string, f func(op ucOp) float64) float64 {
		sums := map[int]float64{}
		for _, op := range ops {
			if op.ctrl == ctrl {
				sums[op.round] += f(op)
			}
		}
		xs := make([]float64, 0, len(sums))
		for _, v := range sums {
			xs = append(xs, v)
		}
		return median(xs)
	}
	child := func(op ucOp, name string) float64 {
		for _, k := range ix.children[op.root] {
			if k.Name == name {
				return ms(k.dur())
			}
		}
		return 0
	}
	runSelf := func(op ucOp) float64 { return ms(ix.selfTime(byID[op.run])) }
	o.layer = map[string]metric{
		"mpi.initialize_ms":       {perRound("mpi", func(op ucOp) float64 { return child(op, "mpi.initialize") }), "ms"},
		"mpi.run_ms":              {perRound("mpi", func(op ucOp) float64 { return child(op, "mpi.run") }), "ms"},
		"mpi.run_self_ms":         {perRound("mpi", runSelf), "ms"},
		"fabric.msgs":             {perRound("mpi", func(op ucOp) float64 { return float64(op.msgs) }), "count"},
		"fabric.bytes":            {perRound("mpi", func(op ucOp) float64 { return float64(op.bytes) }), "B"},
		"charm.run_self_ms":       {perRound("charm", runSelf), "ms"},
		"legion.spmd_run_self_ms": {perRound("legion-spmd", runSelf), "ms"},
		"legion.il_run_self_ms":   {perRound("legion-il", runSelf), "ms"},
		"cb.calls":                {float64(len(ix.byName["cb.mergetree"])+len(ix.byName["cb.render"])+len(ix.byName["cb.register"])) / float64(len(ops)), "count"},
	}
	for _, name := range names {
		var busy []float64
		for _, op := range ops {
			if op.uc == name && op.ctrl == "mpi" {
				var sum time.Duration
				for _, k := range ix.children[op.run] {
					sum += k.dur()
				}
				busy = append(busy, ms(sum))
			}
		}
		o.layer[name+".cb_ms"] = metric{median(busy), "ms"}
	}
	return o, nil
}
