// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// (the paper has no numbered tables; Figs. 2, 3, 6, 9 and 10 carry all
// quantitative results), plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the real controllers.
//
// The scaling figures execute the real task graphs under the simulated
// Shaheen-II runtime models (internal/sim); each benchmark reports the
// simulated seconds of characteristic points as custom metrics, so `go
// test -bench` output doubles as the figure data. cmd/bfbench prints the
// full series.
package babelflow_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	babelflow "github.com/babelflow/babelflow-go"
	"github.com/babelflow/babelflow-go/internal/data"
	"github.com/babelflow/babelflow-go/internal/mergetree"
	"github.com/babelflow/babelflow-go/internal/mpi"
	"github.com/babelflow/babelflow-go/internal/register"
	"github.com/babelflow/babelflow-go/internal/render"
	"github.com/babelflow/babelflow-go/internal/sim"
)

// reportSeries attaches the simulated seconds of each series' first and
// last point as benchmark metrics.
func reportSeries(b *testing.B, rows []sim.Row) {
	b.Helper()
	seen := make(map[string]bool)
	for _, r := range rows {
		if seen[r.Series] {
			continue
		}
		seen[r.Series] = true
		s := sim.SeriesOf(rows, r.Series)
		name := strings.ReplaceAll(r.Series, " ", "_")
		b.ReportMetric(s[0].Seconds, fmt.Sprintf("s(%s@%d)", name, s[0].X))
		b.ReportMetric(s[len(s)-1].Seconds, fmt.Sprintf("s(%s@%d)", name, s[len(s)-1].X))
	}
}

func benchFigure(b *testing.B, name string) {
	var rows []sim.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = sim.Figure(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, rows)
}

// BenchmarkFig02_LegionILvsSPMD regenerates Fig. 2: Legion index-launch vs
// SPMD on the merge-tree dataflow (512³ HCCI), 128-2048 cores.
func BenchmarkFig02_LegionILvsSPMD(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFig03_LaunchOverheads regenerates Fig. 3: strong scaling of a
// single data-parallel launch (compute, staging, totals for both
// launchers).
func BenchmarkFig03_LaunchOverheads(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFig06_MergeTreeRuntimes regenerates Fig. 6: the parallel merge
// tree on Original MPI, MPI, Charm++ and Legion, 128-32768 cores, 1024³.
func BenchmarkFig06_MergeTreeRuntimes(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig09_Registration regenerates Fig. 9: brain-volume
// registration on MPI, Charm++ and Legion, 256-3200 nodes.
func BenchmarkFig09_Registration(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10a_Rendering regenerates Fig. 10a: VTK-style volume
// rendering strong scaling.
func BenchmarkFig10a_Rendering(b *testing.B) { benchFigure(b, "fig10a") }

// BenchmarkFig10b_TotalReduction regenerates Fig. 10b: rendering +
// reduction compositing, total pipeline time.
func BenchmarkFig10b_TotalReduction(b *testing.B) { benchFigure(b, "fig10b") }

// BenchmarkFig10c_TotalBinarySwap regenerates Fig. 10c: rendering +
// binary-swap compositing, total pipeline time.
func BenchmarkFig10c_TotalBinarySwap(b *testing.B) { benchFigure(b, "fig10c") }

// BenchmarkFig10e_ReductionCompositing regenerates Fig. 10e: the
// compositing stage alone, reduction dataflow, IceT vs the runtimes.
func BenchmarkFig10e_ReductionCompositing(b *testing.B) { benchFigure(b, "fig10e") }

// BenchmarkFig10f_BinarySwapCompositing regenerates Fig. 10f: the
// compositing stage alone, binary-swap dataflow.
func BenchmarkFig10f_BinarySwapCompositing(b *testing.B) { benchFigure(b, "fig10f") }

// BenchmarkFig04_FeatureExtraction measures the real (not simulated)
// distributed merge-tree pipeline extracting features from a synthetic
// ignition dataset — the computation whose output Fig. 4 visualizes.
func BenchmarkFig04_FeatureExtraction(b *testing.B) {
	const n = 24
	field := data.SyntheticHCCI(n, n, n, 6, 42)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	graph, err := mergetree.NewGraph(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := babelflow.NewMPI()
		if err := c.Initialize(graph, babelflow.NewGraphMap(4, graph)); err != nil {
			b.Fatal(err)
		}
		if err := cfg.Register(c, graph); err != nil {
			b.Fatal(err)
		}
		initial, err := cfg.InitialInputs(field, graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(initial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05_GraphDot measures building the Fig. 5 merge-tree dataflow
// (the 4-leaf binary instance the figure draws) and rendering it to Dot.
func BenchmarkFig05_GraphDot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := mergetree.NewGraph(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := babelflow.WriteDot(io.Discard, g, babelflow.DotOptions{RankByLevel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10d_CompositeImage measures the real rendering + compositing
// pipeline producing the final frame (the Fig. 10d image) on the MPI
// controller.
func BenchmarkFig10d_CompositeImage(b *testing.B) {
	const n = 32
	field := data.SyntheticHCCI(n, n, n, 6, 7)
	decomp, err := data.NewDecomposition(n, n, n, 2, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := render.Config{
		Decomp: decomp,
		Camera: render.Camera{Width: n, Height: n},
		TF:     render.TransferFunction{Lo: 0.25, Hi: 1.5, Opacity: 0.4},
	}
	graph, err := babelflow.NewReduction(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := babelflow.NewMPI()
		c.Initialize(graph, babelflow.NewModuloMap(4, graph.Size()))
		if err := cfg.RegisterReduction(c, graph); err != nil {
			b.Fatal(err)
		}
		initial, _ := cfg.InitialInputs(field, graph.LeafIds())
		if _, err := c.Run(initial); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblation_BlockingVsAsync isolates the Fig. 6 Original-MPI gap:
// the same merge-tree workload under asynchronous+threaded vs blocking
// single-threaded communication.
func BenchmarkAblation_BlockingVsAsync(b *testing.B) {
	w, err := sim.MergeTreeWorkload(512, 8, 1024)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.ShaheenII(512)
	for _, mode := range []sim.RuntimeModel{sim.MPI, sim.OriginalMPI} {
		b.Run(mode.String(), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res, err = sim.Execute(w, m, mode)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "sim-s")
		})
	}
}

// BenchmarkAblation_InMemoryMessages measures the real MPI controller with
// and without the in-memory message optimization (§IV-A) on a single-rank
// merge-tree run, where every message is eligible for the pointer pass.
func BenchmarkAblation_InMemoryMessages(b *testing.B) {
	const n = 24
	field := data.SyntheticHCCI(n, n, n, 6, 42)
	decomp, _ := data.NewDecomposition(n, n, n, 2, 2, 2)
	graph, _ := mergetree.NewGraph(8, 2)
	cfg := mergetree.Config{Decomp: decomp, Threshold: 0.3}
	for _, serialize := range []bool{false, true} {
		name := "in-memory"
		if serialize {
			name = "always-serialize"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := babelflow.NewMPI(mpi.WithAlwaysSerialize(serialize))
				c.Initialize(graph, babelflow.NewGraphMap(1, graph))
				cfg.Register(c, graph)
				initial, _ := cfg.InitialInputs(field, graph)
				if _, err := c.Run(initial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_CharmLB contrasts the Charm++ model with and without
// dynamic load balancing under the merge tree's natural imbalance.
func BenchmarkAblation_CharmLB(b *testing.B) {
	w, err := sim.MergeTreeWorkload(4096, 8, 1024)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.ShaheenII(4096)
	for _, dynamic := range []bool{true, false} {
		name := "periodic-lb"
		if !dynamic {
			name = "no-lb"
		}
		b.Run(name, func(b *testing.B) {
			o := sim.DefaultOverheads(sim.Charm)
			o.Dynamic = dynamic
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res, err = sim.ExecuteWith(w, m, sim.Charm, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "sim-s")
		})
	}
}

// BenchmarkAblation_Valence sweeps the reduction fan-in of the merge-tree
// dataflow (the paper uses 8-way reductions to reduce tree height).
func BenchmarkAblation_Valence(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			// 4096 = 2^12 = 4^6 = 8^4 = 16^3: the same block count for
			// every valence, so only the tree height varies.
			w, err := sim.MergeTreeWorkload(4096, k, 1024)
			if err != nil {
				b.Fatal(err)
			}
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res, err = sim.Execute(w, sim.ShaheenII(512), sim.MPI)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "sim-s")
		})
	}
}

// BenchmarkAblation_SpawnCost sweeps the Legion index-launch per-subtask
// spawn cost, the parameter behind the Fig. 2/3 overhead story.
func BenchmarkAblation_SpawnCost(b *testing.B) {
	w := sim.IndependentWorkload(1024, 64, 4<<20)
	m := sim.ShaheenII(1024)
	for _, spawn := range []float64{0, 5e-5, 1.5e-4, 5e-4} {
		b.Run(fmt.Sprintf("spawn=%.0e", spawn), func(b *testing.B) {
			o := sim.DefaultOverheads(sim.LegionIL)
			o.SpawnCost = spawn
			var res sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = sim.ExecuteWith(w, m, sim.LegionIL, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "sim-s")
		})
	}
}

// --- Real-controller micro-benchmarks ---

// BenchmarkControllers_Reduction runs a 64-leaf sum reduction on every real
// controller, measuring framework overhead per dataflow execution.
func BenchmarkControllers_Reduction(b *testing.B) {
	graph, err := babelflow.NewReduction(64, 4)
	if err != nil {
		b.Fatal(err)
	}
	sum := func(in []babelflow.Payload, id babelflow.TaskId) ([]babelflow.Payload, error) {
		var s uint64
		for _, p := range in {
			s += binary.LittleEndian.Uint64(p.Data)
		}
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, s)
		return []babelflow.Payload{babelflow.Buffer(buf)}, nil
	}
	builders := []struct {
		name  string
		build func() babelflow.Controller
	}{
		{"serial", func() babelflow.Controller { return babelflow.NewSerial() }},
		{"mpi", func() babelflow.Controller { return babelflow.NewMPI() }},
		{"charm", func() babelflow.Controller { return babelflow.NewCharm(babelflow.CharmOptions{PEs: 4}) }},
		{"legion-spmd", func() babelflow.Controller { return babelflow.NewLegionSPMD(babelflow.LegionOptions{}) }},
		{"legion-il", func() babelflow.Controller { return babelflow.NewLegionIndexLaunch(babelflow.LegionOptions{}) }},
	}
	taskMap := babelflow.NewModuloMap(4, graph.Size())
	for _, entry := range builders {
		b.Run(entry.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := entry.build()
				if err := c.Initialize(graph, taskMap); err != nil {
					b.Fatal(err)
				}
				for _, cid := range graph.Callbacks() {
					c.RegisterCallback(cid, sum)
				}
				initial := make(map[babelflow.TaskId][]babelflow.Payload)
				for _, id := range graph.LeafIds() {
					buf := make([]byte, 8)
					binary.LittleEndian.PutUint64(buf, uint64(id))
					initial[id] = []babelflow.Payload{babelflow.Buffer(buf)}
				}
				if _, err := c.Run(initial); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistration_NCC measures the real correlation kernel of the
// registration use case.
func BenchmarkRegistration_NCC(b *testing.B) {
	cfg := register.Config{GridW: 2, GridH: 1, Tile: 32, Overlap: 0.2, Jitter: 2}
	tiles := data.BrainSpecimen(2, 1, 32, 0.2, 2, 3)
	graph, _ := cfg.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := babelflow.NewSerial()
		c.Initialize(graph, nil)
		cfg.Register(c, graph)
		initial, _ := cfg.InitialInputs(graph, tiles)
		if _, err := c.Run(initial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_OverDecomposition exercises the §I claim that
// over-decomposition helps runtimes with load balancing: the same 1024³
// merge tree decomposed into 1x, 8x and 64x more blocks than cores, on the
// statically-mapped MPI model and the dynamically balanced Charm++ model.
func BenchmarkAblation_OverDecomposition(b *testing.B) {
	const cores = 512
	for _, factor := range []int{1, 8, 64} {
		w, err := sim.MergeTreeWorkload(cores*factor, 8, 1024)
		if err != nil {
			b.Fatal(err)
		}
		m := sim.ShaheenII(cores)
		for _, r := range []sim.RuntimeModel{sim.MPI, sim.Charm} {
			b.Run(fmt.Sprintf("%s/blocks=%dx", r, factor), func(b *testing.B) {
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res, err = sim.Execute(w, m, r)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Makespan, "sim-s")
			})
		}
	}
}
