package mpi

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/graphs"
)

// entryRanks is the rank count every entry point of the parity table runs
// the reduction over.
const entryRanks = 2

// errEntryBoom is the failure the parity table injects into task 1, which
// ModuloMap(2) places on rank 1.
var errEntryBoom = errors.New("entry boom")

// entryCallbacks returns the reduction callbacks; with fail set, task 1's
// callback returns errEntryBoom.
func entryCallbacks(fail bool) map[core.CallbackId]core.Callback {
	mid := sumCB(1)
	if fail {
		mid = func(in []core.Payload, id core.TaskId) ([]core.Payload, error) {
			if id == 1 {
				return nil, errEntryBoom
			}
			return sumCB(1)(in, id)
		}
	}
	return map[core.CallbackId]core.Callback{
		graphs.ReduceLeafCB: sumCB(1),
		graphs.ReduceMidCB:  mid,
		graphs.ReduceRootCB: sumCB(1),
	}
}

// entryOutcome is what one call of an entry point returned. rank is the
// rank the call drove, -1 for calls that drive every rank.
type entryOutcome struct {
	rank  int
	sinks map[core.TaskId][]core.Payload
	err   error
}

// entryPoint runs the whole dataflow through one public entry point and
// reports every call it made.
type entryPoint func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome

func newEntryController(t *testing.T, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback) *Controller {
	t.Helper()
	c := New()
	if err := c.Initialize(g, m); err != nil {
		t.Fatal(err)
	}
	for cb, fn := range reg {
		c.RegisterCallback(cb, fn)
	}
	return c
}

// perRank runs one call per rank concurrently and collects the outcomes.
func perRank(ranks int, run func(rank int) (map[core.TaskId][]core.Payload, error)) []entryOutcome {
	outs := make([]entryOutcome, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sinks, err := run(r)
			outs[r] = entryOutcome{rank: r, sinks: sinks, err: err}
		}(r)
	}
	wg.Wait()
	return outs
}

var entryPoints = []struct {
	name string
	run  entryPoint
}{
	{"RunContext", func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome {
		sinks, err := newEntryController(t, g, m, reg).RunContext(ctx, initial)
		return []entryOutcome{{rank: -1, sinks: sinks, err: err}}
	}},
	{"RunRank", func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome {
		c := newEntryController(t, g, m, reg)
		fab := fabric.New(m.ShardCount())
		parts := splitInitial(m, initial)
		return perRank(m.ShardCount(), func(r int) (map[core.TaskId][]core.Payload, error) {
			return c.RunRank(ctx, r, fab, parts[r], nil, nil)
		})
	}},
	{"RunRankLedger", func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome {
		c := newEntryController(t, g, m, reg)
		fab := fabric.New(m.ShardCount())
		parts := splitInitial(m, initial)
		return perRank(m.ShardCount(), func(r int) (map[core.TaskId][]core.Payload, error) {
			return c.RunRank(ctx, r, fab, parts[r], m, core.NewLedger())
		})
	}},
	{"ShardRunContext", func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome {
		group, err := NewGroup(g, m)
		if err != nil {
			t.Fatal(err)
		}
		for cb, fn := range reg {
			group.RegisterCallback(cb, fn)
		}
		parts := splitInitial(m, initial)
		return perRank(m.ShardCount(), func(r int) (map[core.TaskId][]core.Payload, error) {
			shard, err := group.Shard(r)
			if err != nil {
				return nil, err
			}
			return shard.RunContext(ctx, parts[r])
		})
	}},
	{"ServiceSubmit", func(t *testing.T, ctx context.Context, g core.TaskGraph, m core.TaskMap, reg map[core.CallbackId]core.Callback, initial map[core.TaskId][]core.Payload) []entryOutcome {
		svc, err := NewService(m.ShardCount())
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		sinks, _, err := svc.Submit(ctx, Submission{
			Graph: g,
			Map:   m,
			Register: func(c core.CallbackRegistrar) error {
				for cb, fn := range reg {
					if err := c.RegisterCallback(cb, fn); err != nil {
						return err
					}
				}
				return nil
			},
			Initial: initial,
		})
		return []entryOutcome{{rank: -1, sinks: sinks, err: err}}
	}},
}

// TestEntryPointParity runs one graph through every entry point that
// executes ranks of a dataflow and checks that they agree: the sinks equal
// the serial reference, a failing callback's error reaches the call that
// ran it while every other call still fails, and a context cancelled
// before the call is reported as core.ErrCancelled.
func TestEntryPointParity(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(entryRanks, g.Size())
	initial := reductionInputs(g)
	want := serialReduction(t, g, initial)
	failRank := int(m.Shard(1))

	for _, ep := range entryPoints {
		t.Run(ep.name+"/sinks", func(t *testing.T) {
			got := make(map[core.TaskId][]core.Payload)
			for _, o := range ep.run(t, context.Background(), g, m, entryCallbacks(false), cloneInitial(initial)) {
				if o.err != nil {
					t.Fatalf("rank %d: %v", o.rank, o.err)
				}
				for id, ps := range o.sinks {
					got[id] = append(got[id], ps...)
				}
			}
			compareResults(t, want, got)
		})
		t.Run(ep.name+"/failure", func(t *testing.T) {
			for _, o := range ep.run(t, context.Background(), g, m, entryCallbacks(true), cloneInitial(initial)) {
				switch {
				case o.err == nil:
					t.Errorf("rank %d: nil error with %d sink task(s), want an error", o.rank, len(o.sinks))
				case (o.rank == -1 || o.rank == failRank) && !errors.Is(o.err, errEntryBoom):
					t.Errorf("rank %d (runs the failing task): error = %v, want %v", o.rank, o.err, errEntryBoom)
				}
			}
		})
		t.Run(ep.name+"/cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, o := range ep.run(t, ctx, g, m, entryCallbacks(false), cloneInitial(initial)) {
				if !errors.Is(o.err, core.ErrCancelled) {
					t.Errorf("rank %d: error = %v, want core.ErrCancelled", o.rank, o.err)
				}
			}
		})
	}
}

// TestRunRankPeerAbortReturnsError: a rank whose peer fails stops with its
// own tasks still pending; it must report that as an error wrapping
// fabric.ErrClosed rather than return nil with its sinks missing.
func TestRunRankPeerAbortReturnsError(t *testing.T) {
	g, _ := graphs.NewReduction(8, 2)
	m := core.NewModuloMap(entryRanks, g.Size())
	c := newEntryController(t, g, m, entryCallbacks(true))
	fab := fabric.New(entryRanks)
	parts := splitInitial(m, reductionInputs(g))
	outs := perRank(entryRanks, func(r int) (map[core.TaskId][]core.Payload, error) {
		return c.RunRank(context.Background(), r, fab, parts[r], nil, nil)
	})
	if err := outs[1].err; !errors.Is(err, errEntryBoom) {
		t.Errorf("rank 1 error = %v, want %v", err, errEntryBoom)
	}
	if err := outs[0].err; !errors.Is(err, fabric.ErrClosed) {
		t.Errorf("rank 0 (owns the sink) error = %v with %d sink task(s), want fabric.ErrClosed", err, len(outs[0].sinks))
	}
}
