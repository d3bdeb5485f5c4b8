// Package mpi implements the MPI runtime controller of the paper (§IV-A):
// static task placement via a task map, asynchronous point-to-point
// messages, and a per-rank thread pool that executes tasks greedily as soon
// as their inputs arrive.
//
// Each rank instantiates a separate controller loop that owns the local
// sub-graph, posts receives, tracks input readiness and hands ready tasks to
// background workers. Intra-rank messages skip serialization and pass the
// payload pointer directly; inter-rank messages (and fan-out copies) are
// serialized. A task assumes ownership of its inputs and relinquishes
// ownership of its outputs, so no data races occur on payloads.
//
// Scheduling is graph-aware: at Initialize the controller runs a one-pass
// critical-path analysis (core.CriticalPathsFor, cached per graph
// fingerprint) and the receive loop dispatches ready tasks into per-rank
// priority deques ordered by downstream depth, so the most critical ready
// task runs first instead of the oldest. The deques are drained by a shared
// work-stealing executor (fabric.Pool): a global budget of workers —
// defaulting to GOMAXPROCS, not a fixed per-rank pool — is homed round-robin
// over the ranks, and an idle worker whose home rank has no ready work
// steals the most critical task of a loaded rank. Scheduling order never
// changes outputs: tasks still run only when every input has arrived, and
// routing depends only on the graph and the task map.
//
// In this reproduction "ranks" are goroutine groups connected by the
// in-process fabric rather than OS processes on a Cray; the control
// structure — who serializes what, when tasks dispatch, what blocks —
// follows the paper's controller.
package mpi

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/fabric"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// TransportFactory builds the transport an in-process Run executes over —
// the hook the functional option WithTransport installs. The returned
// transport must be receivable for every rank in-process (like the
// in-memory fabric); per-process transports (wire) go through RunRank.
type TransportFactory func(ranks int) fabric.Transport

// Options configures a Controller.
type Options struct {
	// Workers is the global worker budget of a run: the number of executor
	// goroutines shared by all ranks. With stealing enabled (the default) an
	// idle rank's worker executes another rank's ready tasks, so the budget
	// bounds total execution concurrency rather than per-rank concurrency.
	// Zero selects runtime.GOMAXPROCS(0). When stealing is disabled the
	// budget is raised to at least one homed worker per rank, since nothing
	// else can drain a rank's deque.
	Workers int
	// FIFO dispatches ready tasks in arrival order instead of
	// most-critical-first — the pre-scheduler discipline, kept as the
	// ablation baseline of the scheduler benches.
	FIFO bool
	// NoSteal pins workers to their home rank's deque (ablation). It forces
	// at least one worker per rank.
	NoSteal bool
	// Inline executes tasks inside the controller loop instead of on the
	// pool — the single-threaded execution style of the hand-tuned baseline.
	Inline bool
	// AlwaysSerialize disables the in-memory message optimization, forcing
	// every payload through serialization (ablation).
	AlwaysSerialize bool
	// Observer, when non-nil, receives a notification per executed task. An
	// Observer that also implements core.SchedObserver additionally receives
	// per-task queue timing (enqueue and dispatch instants); one implementing
	// core.ReplayObserver or core.RecoveryObserver additionally receives
	// fault-tolerance notifications (ledger replays, recovery epochs).
	Observer core.Observer
	// Retry bounds fault-tolerant execution (RunElastic): failed-epoch
	// count, backoff and per-attempt timeout. The zero value selects
	// core.DefaultRetryPolicy.
	Retry core.RetryPolicy
	// Transport, when non-nil, builds the transport Run/RunContext executes
	// over instead of the default in-memory fabric — the seam fault-injection
	// and custom interconnects plug into.
	Transport TransportFactory
	// Journal, when non-empty, is the directory where every rank's lineage
	// ledger is persisted as a segmented CRC32C record log
	// (internal/journal): rank r journals under Journal/rank-r. A run
	// started over an existing journal resumes — journaled tasks replay
	// their recorded outputs instead of re-executing, so only the
	// un-journaled frontier runs. Journaling implies fault-tolerant
	// bookkeeping (sequence-stamped messages, receiver dedup) even outside
	// RunElastic.
	Journal string
	// JournalSync selects the journal's fsync policy. The zero value
	// (journal.SyncEveryRecord) makes every recorded task crash-durable;
	// see journal.SyncPolicy for the cheaper relaxations.
	JournalSync journal.SyncPolicy
	// JournalCommitInterval and JournalCommitRecords tune the
	// journal.SyncGroupCommit policy's commit window (time and record
	// bounds). Zero keeps the journal defaults (2ms, 64 records); both are
	// ignored by the other sync policies.
	JournalCommitInterval time.Duration
	JournalCommitRecords  int
	// HeartbeatInterval and HeartbeatTimeout tune the wire transport's
	// failure detector for meshes built from this controller's WireOptions
	// template. Zero keeps the wire defaults (1s interval, 4x timeout).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// WireTier selects the wire transport tier for meshes built from this
	// controller's WireOptions template: wire.TierAuto (default) rides
	// unix-domain sockets between co-located ranks and TCP across hosts;
	// wire.TierTCP and wire.TierUnix force one transport.
	WireTier wire.Tier

	// Validation bookkeeping stamped by the functional options so
	// conflicting combinations surface as errors at Initialize instead of
	// silently letting the last option win. The struct form leaves these
	// zero and is validated on its field values alone.
	syncSet  bool
	syncWas  journal.SyncPolicy
	groupSet bool
	optErr   error
}

// validate rejects option combinations with no coherent meaning: an
// explicit WithJournalSync policy fighting WithJournalGroupCommit, or a
// negative commit window. It returns the first error a functional option
// recorded while being applied.
func (o *Options) validate() error {
	if o.optErr != nil {
		return o.optErr
	}
	if o.syncSet && o.groupSet && o.syncWas != journal.SyncGroupCommit {
		return fmt.Errorf("mpi: WithJournalSync(%v) conflicts with WithJournalGroupCommit (which implies %v); pass one of them",
			o.syncWas, journal.SyncGroupCommit)
	}
	if o.JournalCommitInterval < 0 {
		return fmt.Errorf("mpi: negative journal commit interval %v", o.JournalCommitInterval)
	}
	if o.JournalCommitRecords < 0 {
		return fmt.Errorf("mpi: negative journal commit record bound %d", o.JournalCommitRecords)
	}
	return nil
}

// Controller executes task graphs in MPI style. Create one, Initialize it
// with a graph and task map, register callbacks, then Run.
type Controller struct {
	opt       Options
	graph     core.TaskGraph
	tmap      core.TaskMap
	reg       *core.Registry
	prio      *core.CriticalPaths
	schedObs  core.SchedObserver
	replayObs core.ReplayObserver
	recObs    core.RecoveryObserver

	// Stats from the last Run.
	lastStats fabric.Stats

	// Stats from the last journaled run (guarded separately: concurrent
	// RunRank calls on one controller may finish in any order).
	jmu    sync.Mutex
	jstats JournalStats
}

// JournalStats summarizes the last journaled run of a controller: how much
// completed work the journal carried into the run, how much of it was
// replayed instead of re-executed, and whether durability degraded.
type JournalStats struct {
	// Restored counts tasks inherited from the journal at open — completed
	// work a resumed run does not repeat.
	Restored int
	// Replayed counts tasks whose recorded outputs were re-emitted without
	// running the callback.
	Replayed int
	// Executed counts callback executions.
	Executed int
	// StoreErrors counts failed journal appends; the affected entries stay
	// pinned in memory, so only durability (not correctness) degraded.
	StoreErrors int
}

// JournalStats returns the journal counters of the last journaled run (or
// rank, for RunRank). Zero when the controller has no journal configured.
func (c *Controller) JournalStats() JournalStats {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.jstats
}

// recordJournalStats aggregates the given ledgers into the controller's
// last-run journal counters.
func (c *Controller) recordJournalStats(leds []*core.Ledger) {
	var js JournalStats
	for _, l := range leds {
		if l == nil {
			continue
		}
		js.Restored += l.Restored()
		js.Replayed += l.Replays()
		js.Executed += l.Executions()
		js.StoreErrors += l.StoreErrors()
	}
	c.jmu.Lock()
	c.jstats = js
	c.jmu.Unlock()
}

// openLedger opens rank's slice of the controller's journal directory and
// returns a ledger journaling through it. The caller owns the store and
// must Close it after the run.
func (c *Controller) openLedger(rank int) (*core.Ledger, *journal.LedgerStore, error) {
	dir := filepath.Join(c.opt.Journal, fmt.Sprintf("rank-%d", rank))
	store, err := journal.OpenLedgerStore(dir, journal.Options{
		Sync:           c.opt.JournalSync,
		CommitInterval: c.opt.JournalCommitInterval,
		CommitRecords:  c.opt.JournalCommitRecords,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d journal: %w", rank, err)
	}
	return core.NewLedgerBacked(store, 0), store, nil
}

// openLedgers opens one durable ledger per rank under the controller's
// journal directory. The returned close function records the run's journal
// counters and closes every store exactly once — callers may defer it on
// every exit path (including error and cancellation unwinds) without
// double-closing. On an open error the stores opened so far are closed
// before returning.
func (c *Controller) openLedgers(ranks int) (leds []*core.Ledger, close func(), err error) {
	leds = make([]*core.Ledger, ranks)
	stores := make([]*journal.LedgerStore, ranks)
	for r := 0; r < ranks; r++ {
		led, store, err := c.openLedger(r)
		if err != nil {
			for _, s := range stores[:r] {
				s.Close()
			}
			return nil, nil, err
		}
		leds[r], stores[r] = led, store
	}
	var once sync.Once
	return leds, func() {
		once.Do(func() {
			c.recordJournalStats(leds)
			for _, s := range stores {
				s.Close()
			}
		})
	}, nil
}

// New returns an MPI controller. Configuration is functional-options style,
// applied left to right:
//
//	mpi.New(mpi.WithWorkers(4), mpi.WithRetry(policy))
func New(opts ...Option) *Controller {
	var opt Options
	for _, o := range opts {
		o.apply(&opt)
	}
	return newFromOptions(opt)
}

// newFromOptions builds a controller from a resolved configuration — the
// internal seam the service uses to stamp per-run controllers from its
// option template.
func newFromOptions(opt Options) *Controller {
	c := &Controller{opt: opt, reg: core.NewRegistry()}
	if so, ok := opt.Observer.(core.SchedObserver); ok {
		c.schedObs = so
	}
	if ro, ok := opt.Observer.(core.ReplayObserver); ok {
		c.replayObs = ro
	}
	if ro, ok := opt.Observer.(core.RecoveryObserver); ok {
		c.recObs = ro
	}
	return c
}

// Initialize implements core.Controller. The task map is required: it
// determines which tasks are assigned to which rank. Not all ranks must be
// assigned tasks, nor is there a limit per rank — running a graph on fewer
// ranks trades distributed for shared-memory parallelism.
func (c *Controller) Initialize(g core.TaskGraph, m core.TaskMap) error {
	if err := c.opt.validate(); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("mpi: nil task graph")
	}
	if m == nil {
		return fmt.Errorf("mpi: the MPI controller requires a task map")
	}
	if err := core.Validate(g); err != nil {
		return err
	}
	if err := core.ValidateMap(g, m); err != nil {
		return err
	}
	prio, err := core.CriticalPathsFor(g)
	if err != nil {
		return err
	}
	c.graph, c.tmap, c.prio = g, m, prio
	return nil
}

// RegisterCallback implements core.Controller.
func (c *Controller) RegisterCallback(cb core.CallbackId, fn core.Callback) error {
	if c.graph == nil {
		return core.ErrNotInitialized
	}
	return c.reg.Register(cb, fn)
}

// Stats returns the inter-rank traffic of the last Run.
func (c *Controller) Stats() fabric.Stats { return c.lastStats }

// transport builds the transport of an in-process run over ranks: the
// WithTransport factory's, otherwise a fresh in-memory fabric.
func (o *Options) transport(ranks int) fabric.Transport {
	if o.Transport != nil {
		return o.Transport(ranks)
	}
	return fabric.New(ranks)
}

// newPool builds the work-stealing executor a run over ranks dispatches
// onto, or nil for Inline execution. The worker budget (GOMAXPROCS when
// unset) is capped at maxTasks, the tasks the pool can ever run, but never
// below one. A single-rank run (home >= 0) homes every worker on its rank,
// whose peers' deques stay empty; otherwise workers home round-robin over
// the ranks, and without stealing every rank needs a worker of its own.
func newPool(opt *Options, ranks, home, maxTasks int) *fabric.Pool {
	if opt.Inline {
		return nil
	}
	n := opt.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = max(min(n, maxTasks), 1)
	var workers []int
	if home >= 0 {
		workers = make([]int, n)
		for i := range workers {
			workers[i] = home
		}
	} else {
		if opt.NoSteal {
			n = max(n, ranks)
		}
		workers = fabric.RoundRobinHomes(n, ranks)
	}
	return fabric.NewPool(ranks, workers, fabric.PoolOptions{FIFO: opt.FIFO, NoSteal: opt.NoSteal})
}

// Run implements core.Controller.
func (c *Controller) Run(initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	return c.RunContext(context.Background(), initial)
}

// RunContext implements core.Controller: Run with cancellation and deadline
// propagation. When the context ends, the fabric is cancelled so every rank
// loop and blocked receive unwinds promptly, and the call returns an error
// wrapping core.ErrCancelled.
func (c *Controller) RunContext(ctx context.Context, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	if c.graph == nil {
		return nil, core.ErrNotInitialized
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, err
	}
	if err := core.CheckInitial(c.graph, initial); err != nil {
		return nil, err
	}

	ranks := c.tmap.ShardCount()

	// Journaled runs give every rank a durable ledger before any task runs:
	// a fresh directory journals progress, an existing one resumes from it.
	var leds []*core.Ledger
	if c.opt.Journal != "" {
		var closeLeds func()
		var err error
		leds, closeLeds, err = c.openLedgers(ranks)
		if err != nil {
			return nil, err
		}
		defer closeLeds()
	}

	fab := c.opt.transport(ranks)
	pool := newPool(&c.opt, ranks, -1, c.graph.Size())
	if pool != nil {
		defer pool.Close()
	}
	results, err := c.run(ctx, newRunEnv(c.tmap, fab, pool, leds), 0, ranks, initial)
	c.lastStats = fab.Snapshot()
	return results, err
}

// run is the rank harness, the one driver of every entry point that
// executes ranks of a dataflow: it starts ranks [lo, hi) of env's run
// concurrently, aborts the run when ctx ends, and returns either the sinks
// of the tasks those ranks own or the run's first failure. Callers choose
// only which ranks to start and how far env — and so an abort — reaches:
// one call (RunContext, RunRank, Service.Submit) or a whole in-situ Group.
func (c *Controller) run(ctx context.Context, env *runEnv, lo, hi int, initial map[core.TaskId][]core.Payload) (map[core.TaskId][]core.Payload, error) {
	stop := watchContext(ctx, env.abort)
	var wg sync.WaitGroup
	for r := lo; r < hi; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := c.runRank(rank, env, initial); err != nil {
				env.abort(err)
			}
		}(r)
	}
	wg.Wait()
	stop()
	if err := env.firstErr(); err != nil {
		return nil, err
	}
	return env.takeSinks(lo, hi), nil
}

// watchContext aborts the run when the context ends. The returned stop
// function retires the watcher; it must be called before the run's results
// are returned so a late cancellation cannot fire mid-teardown. A context
// that has already ended aborts synchronously: left to the watcher, a run
// that finishes before the watcher is scheduled would retire it unfired
// and succeed despite the cancellation.
func watchContext(ctx context.Context, abort func(error)) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		abort(core.Cancelled(ctx))
		return func() {}
	}
	stopc := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			abort(core.Cancelled(ctx))
		case <-stopc:
		}
	}()
	return func() { close(stopc) }
}

// Fingerprint returns the canonical fingerprint of the controller's graph
// and registered callbacks — what a rank presents during the wire
// rendezvous handshake so mismatched binaries are rejected before any
// message flows. It is zero before Initialize.
func (c *Controller) Fingerprint() core.Fingerprint {
	if c.graph == nil {
		return core.Fingerprint{}
	}
	return core.GraphFingerprint(c.graph, c.reg.Ids())
}

// WireOptions returns the wire transport template this controller implies:
// its graph fingerprint plus any heartbeat tuning (WithHeartbeat). Callers
// building a mesh fill in Rank/Ranks/Addr (wire.Mesh does so itself).
func (c *Controller) WireOptions() wire.Options {
	return wire.Options{
		Fingerprint:       c.Fingerprint(),
		HeartbeatInterval: c.opt.HeartbeatInterval,
		HeartbeatTimeout:  c.opt.HeartbeatTimeout,
		Tier:              c.opt.WireTier,
	}
}

// RunRank executes exactly one rank of the dataflow over the provided
// transport — the multi-process entry point. Where Run spawns every rank as
// a goroutine over an in-memory fabric sharing one work-stealing executor,
// RunRank drives a single rank whose peers live behind the transport (other
// OS processes over the TCP fabric, or other in-process RunRank calls
// sharing a transport per rank); its executor serves only the local rank,
// so the worker budget applies per process.
//
// tmap places the tasks; nil selects the map given to Initialize, and an
// elastic or recovery epoch passes its rebalanced map. led is the rank's
// lineage ledger: tasks already recorded there replay their outputs instead
// of re-executing. A nil led runs without lineage, or over the rank's own
// journal when the controller has one (WithJournal).
//
// initial must contain exactly the external inputs of this rank's tasks.
// RunRank returns the sink outputs produced by local tasks. On any local
// failure the transport is cancelled so every peer unwinds; a peer or
// transport failure surfaces as the transport's typed error, and a rank
// stopped by a peer's failure with tasks pending reports fabric.ErrClosed.
//
// RunRank is safe to call concurrently for different ranks on one shared
// controller (it does not update Stats — consult the transport's Snapshot).
func (c *Controller) RunRank(ctx context.Context, rank int, tr fabric.Transport, initial map[core.TaskId][]core.Payload, tmap core.TaskMap, led *core.Ledger) (map[core.TaskId][]core.Payload, error) {
	if c.graph == nil {
		return nil, core.ErrNotInitialized
	}
	if tmap == nil {
		tmap = c.tmap
	}
	if err := c.reg.Covers(c.graph); err != nil {
		return nil, err
	}
	if got, want := tr.Ranks(), tmap.ShardCount(); got != want {
		return nil, fmt.Errorf("mpi: transport has %d ranks, task map shards over %d", got, want)
	}
	if rank < 0 || rank >= tr.Ranks() {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, tr.Ranks())
	}
	if err := checkLocalInitial(c.graph, tmap, rank, initial); err != nil {
		tr.Cancel()
		return nil, err
	}

	// A journal-configured plain run (no ledger from a recovery
	// coordinator) opens its own durable ledger: outputs journal as tasks
	// complete, and a restart over the same directory replays them.
	if led == nil && c.opt.Journal != "" {
		var store *journal.LedgerStore
		var err error
		led, store, err = c.openLedger(rank)
		if err != nil {
			tr.Cancel()
			return nil, err
		}
		defer func() {
			c.recordJournalStats([]*core.Ledger{led})
			store.Close()
		}()
	}

	pool := newPool(&c.opt, tr.Ranks(), rank, len(tmap.Ids(core.ShardId(rank))))
	if pool != nil {
		defer pool.Close()
	}
	var leds []*core.Ledger
	if led != nil {
		leds = make([]*core.Ledger, tr.Ranks())
		leds[rank] = led
	}
	return c.run(ctx, newRunEnv(tmap, tr, pool, leds), rank, rank+1, initial)
}

// checkLocalInitial verifies rank-local external inputs: exactly the
// ExternalInput slots of the rank's tasks must be covered, no more, no less.
func checkLocalInitial(g core.TaskGraph, m core.TaskMap, rank int, initial map[core.TaskId][]core.Payload) error {
	local, err := core.LocalGraph(g, m, core.ShardId(rank))
	if err != nil {
		return err
	}
	want := make(map[core.TaskId]int)
	for _, t := range local {
		n := 0
		for _, in := range t.Incoming {
			if in == core.ExternalInput {
				n++
			}
		}
		if n > 0 {
			want[t.Id] = n
		}
	}
	for id, ps := range initial {
		n, ok := want[id]
		if !ok {
			return fmt.Errorf("mpi: rank %d received inputs for task %d, which expects none (or is not local)", rank, id)
		}
		if len(ps) != n {
			return fmt.Errorf("mpi: rank %d task %d expects %d external inputs, got %d", rank, id, n, len(ps))
		}
		delete(want, id)
	}
	for id := range want {
		return fmt.Errorf("mpi: rank %d task %d is missing its external inputs", rank, id)
	}
	return nil
}

// scratchPool recycles the per-execution message scratch slices the workers
// batch a task's outputs into; with the shared executor workers are no
// longer rank-scoped, so scratch lives in a pool instead of a worker local.
var scratchPool = sync.Pool{New: func() any { return new([]fabric.Message) }}

// runEnv is the state of one dataflow execution that the rank loops
// share: the task map of this epoch (recovery may differ from
// Initialize's), the transport, the shared executor (nil in Inline mode),
// the run's first failure, the sink outputs collected so far, and — for
// fault-tolerant runs — the per-rank lineage ledgers plus the per-home-rank
// egress sequence counters that give messages a dedup identity.
type runEnv struct {
	tmap core.TaskMap
	fab  fabric.Transport
	pool *fabric.Pool
	leds []*core.Ledger  // per-rank ledgers; nil outside ledgered runs
	seq  []atomic.Uint64 // nil outside fault-tolerant runs

	mu    sync.Mutex
	err   error                          // first failure; guarded by mu
	sinks map[core.TaskId][]core.Payload // created on the first sink; guarded by mu
}

func newRunEnv(tmap core.TaskMap, fab fabric.Transport, pool *fabric.Pool, leds []*core.Ledger) *runEnv {
	env := &runEnv{tmap: tmap, fab: fab, pool: pool, leds: leds}
	if leds != nil {
		env.seq = make([]atomic.Uint64, fab.Ranks())
	}
	return env
}

// abort records the run's first failure and cancels the transport so every
// rank of the run unwinds.
func (e *runEnv) abort(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.fab.Cancel()
}

func (e *runEnv) firstErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// addSink records one sink output of task id.
func (e *runEnv) addSink(id core.TaskId, p core.Payload) {
	e.mu.Lock()
	if e.sinks == nil {
		e.sinks = make(map[core.TaskId][]core.Payload)
	}
	e.sinks[id] = append(e.sinks[id], p)
	e.mu.Unlock()
}

// takeSinks removes and returns the sinks of tasks placed on ranks
// [lo, hi). When the env holds no other rank's sinks — every run but an
// in-situ shard finishing before its peers — the map is handed over whole.
func (e *runEnv) takeSinks(lo, hi int) map[core.TaskId][]core.Payload {
	e.mu.Lock()
	defer e.mu.Unlock()
	own := func(id core.TaskId) bool {
		r := int(e.tmap.Shard(id))
		return r >= lo && r < hi
	}
	for id := range e.sinks {
		if !own(id) {
			out := make(map[core.TaskId][]core.Payload)
			for id, ps := range e.sinks {
				if own(id) {
					out[id] = ps
					delete(e.sinks, id)
				}
			}
			return out
		}
	}
	out := e.sinks
	e.sinks = nil
	return out
}

// ledger returns rank's lineage ledger, or nil when the run keeps none.
// RunContext shares one env across every in-process rank, so ledgers are
// indexed rather than a single field.
func (e *runEnv) ledger(rank int) *core.Ledger {
	if e.leds == nil {
		return nil
	}
	return e.leds[rank]
}

// runRank is the per-rank controller loop: it drains the rank's mailbox,
// tracks input readiness and dispatches ready tasks into the rank's
// priority deque on the shared executor (pool is nil only in Inline mode).
func (c *Controller) runRank(rank int, env *runEnv, initial map[core.TaskId][]core.Payload) error {
	local, err := core.LocalGraph(c.graph, env.tmap, core.ShardId(rank))
	if err != nil {
		return err
	}
	if len(local) == 0 {
		return nil // rank with no assigned tasks
	}
	tasks := make(map[core.TaskId]core.Task, len(local))
	for _, t := range local {
		tasks[t.Id] = t
	}

	st := core.NewDataflowState(c.graph)
	remaining := len(local)
	led := env.ledger(rank)

	// execute runs one ready task on whichever worker picked it up and
	// routes its outputs. A failing task records the cause and cancels the
	// fabric so every rank unwinds. In a fault-tolerant run, a task whose
	// outputs are already in the lineage ledger is replayed — its recorded
	// wire forms are re-routed downstream without re-running the callback —
	// so a recovery epoch only pays for the undelivered frontier.
	execute := func(t core.Task, in []core.Payload, scratch []fabric.Message) []fabric.Message {
		if led != nil {
			if rec, ok := led.Outputs(t.Id); ok {
				// The inputs were assembled only to satisfy readiness; the
				// replayed outputs come from the ledger.
				for i := range in {
					in[i].Release()
				}
				out := make([]core.Payload, len(rec))
				for s, b := range rec {
					cp := make([]byte, len(b))
					copy(cp, b)
					out[s] = core.Buffer(cp)
				}
				led.CountReplay()
				if c.replayObs != nil {
					c.replayObs.TaskReplayed(t.Id, env.tmap.Shard(t.Id), t.Callback)
				}
				scratch, err := c.route(rank, env, t, 0, out, scratch)
				if err != nil {
					env.abort(err)
				}
				return scratch
			}
		}
		// A dead input cancels the task: the callback is skipped and dead
		// tokens propagate on every output slot. Cancellation journals like
		// a normal execution, so a resumed run replays it instead of
		// re-deciding.
		if out, cancelled := core.CancelDead(t, in); cancelled {
			var attempt uint32
			if led != nil {
				attempt = uint32(led.BeginAttempt(t.Id))
				recordOutputs(led, t, out)
			}
			scratch, err := c.route(rank, env, t, attempt, out, scratch)
			if err != nil {
				env.abort(err)
			}
			return scratch
		}
		// Detach private copies of shared fan-out wire forms on the worker,
		// so the copies of independent consumers proceed in parallel instead
		// of serializing on the receive loop.
		for i := range in {
			in[i] = in[i].Own()
		}
		var attempt uint32
		if led != nil {
			attempt = uint32(led.BeginAttempt(t.Id))
		}
		out, err := c.runTask(t, in, env.tmap.Shard(t.Id))
		if err != nil {
			env.abort(err)
			return scratch
		}
		if led != nil {
			recordOutputs(led, t, out)
		}
		scratch, err = c.route(rank, env, t, attempt, out, scratch)
		if err != nil {
			env.abort(err)
		}
		return scratch
	}

	// pend tracks this rank's dispatched-but-unfinished tasks; runRank only
	// returns once its routes completed, exactly as the old per-rank pool's
	// Wait did. The executor itself is shared and outlives the rank loop.
	var pend sync.WaitGroup
	defer pend.Wait()

	var inlineScratch []fabric.Message
	dispatch := func(t core.Task, in []core.Payload) {
		if c.opt.Inline {
			inlineScratch = execute(t, in, inlineScratch)
			return
		}
		// Priority dispatch: the deque hands workers the most critical
		// ready task — the one with the longest downstream chain — not the
		// oldest (§IV-A schedules greedily; the priority decides among
		// simultaneously ready tasks and cannot affect outputs).
		var enq time.Time
		if c.schedObs != nil {
			enq = time.Now()
		}
		pend.Add(1)
		env.pool.Submit(rank, int64(c.prio.Depth(t.Id)), func() {
			defer pend.Done()
			if c.schedObs != nil {
				c.schedObs.TaskQueued(t.Id, enq, time.Now())
			}
			sp := scratchPool.Get().(*[]fabric.Message)
			*sp = execute(t, in, *sp)
			scratchPool.Put(sp)
		})
	}

	// Feed external inputs for local leaf tasks, then dispatch tasks that
	// are immediately ready.
	for _, t := range local {
		for _, p := range initial[t.Id] {
			if err := st.DeliverExternal(t.Id, p); err != nil {
				return err
			}
		}
	}
	for _, t := range local {
		if in, ok := st.Take(t.Id); ok {
			dispatch(t, in)
			remaining--
		}
	}

	// Receive loop: every arriving message targets a local task. Tasks
	// become ready in the order their last input arrives and enter the
	// priority deque; messages are drained in batches so a burst costs one
	// mailbox lock, not one per message. Dispatch never blocks, so the loop
	// keeps draining and accounting inputs while every worker is busy.
	//
	// Fault-tolerant runs additionally dedup by message sequence id: a
	// redelivered duplicate (injected or transport-retried) would otherwise
	// fill a second input slot and corrupt readiness accounting.
	batch := make([]fabric.Message, 64)
	var seen []map[uint64]struct{}
	if led != nil {
		seen = make([]map[uint64]struct{}, env.fab.Ranks())
	}
	for remaining > 0 {
		n, ok := env.fab.RecvBatch(rank, batch)
		if !ok {
			// Delivery became impossible. A transport-level failure (lost
			// peer, broken wire) surfaces as the typed transport error; an
			// abort within this run recorded its cause first. Otherwise a
			// peer behind the transport stopped it: never report success
			// with tasks pending.
			if err := env.fab.Err(); err != nil {
				return err
			}
			return fmt.Errorf("mpi: rank %d: transport closed with %d task(s) pending: %w", rank, remaining, fabric.ErrClosed)
		}
		for i := 0; i < n; i++ {
			m := batch[i]
			batch[i] = fabric.Message{} // drop the payload reference
			if seen != nil && m.Seq != 0 {
				s := seen[m.From]
				if s == nil {
					s = make(map[uint64]struct{})
					seen[m.From] = s
				}
				if _, dup := s[m.Seq]; dup {
					m.Payload.Release()
					continue
				}
				s[m.Seq] = struct{}{}
			}
			t, ok := tasks[m.Dest]
			if !ok {
				return fmt.Errorf("mpi: rank %d received message for non-local task %d", rank, m.Dest)
			}
			if err := st.Deliver(m.Dest, m.Src, m.Payload); err != nil {
				return err
			}
			if in, ok := st.Take(m.Dest); ok {
				dispatch(t, in)
				remaining--
			}
		}
	}
	return nil
}

// recordOutputs retains a completed task's serialized outputs in the
// lineage ledger. Best effort: if any slot cannot serialize (an object
// payload without Serializable) the task stays unrecorded and simply
// re-executes in a recovery epoch — always correct under the idempotence
// contract, just not accelerated.
func recordOutputs(led *core.Ledger, t core.Task, out []core.Payload) {
	wires := make([][]byte, len(out))
	for i := range out {
		cp, err := out[i].CloneForWire()
		if err != nil {
			return
		}
		wires[i] = cp.Data
	}
	led.Record(t.Id, wires)
}

// runTask executes one task's callback. shard is the task's placement in
// the executing run's task map (a recovery epoch's may differ from the one
// given to Initialize).
func (c *Controller) runTask(t core.Task, in []core.Payload, shard core.ShardId) ([]core.Payload, error) {
	fn, ok := c.reg.Lookup(t.Callback)
	if !ok {
		return nil, fmt.Errorf("%w: callback %d", core.ErrUnregisteredCallback, t.Callback)
	}
	out, err := core.SafeInvoke(fn, in, t.Id)
	if err != nil {
		return nil, fmt.Errorf("mpi: task %d (callback %d): %w", t.Id, t.Callback, err)
	}
	if len(out) != len(t.Outgoing) {
		return nil, fmt.Errorf("mpi: task %d produced %d outputs, graph declares %d slots", t.Id, len(out), len(t.Outgoing))
	}
	if c.opt.Observer != nil {
		c.opt.Observer.TaskExecuted(t.Id, shard, t.Callback)
	}
	return out, nil
}

// route delivers a finished task's outputs: sink slots into the result map,
// intra-rank single-consumer edges as in-memory messages, everything else
// as wire forms over the fabric.
//
// Copy-on-fan-out: a slot with several wire consumers is serialized exactly
// once and the immutable wire form is shared between them through a
// refcounted wrapper (core.SharedPayload); each consumer detaches a private
// copy at delivery. A slot with a single wire consumer hands the
// relinquished buffer over without any copy. All of a task's messages are
// collected into scratch and enqueued with one batched send per destination
// run, so the whole fan-out costs one serialization and O(destinations)
// lock acquisitions. The (possibly grown) scratch slice is returned for
// reuse by the calling worker.
//
// rank is the task's home rank (where its inputs were assembled), not the
// rank of the stealing worker: the in-memory shortcut and the message From
// field must follow placement, or outputs would change with the schedule.
//
// In fault-tolerant runs every message is stamped with a per-home-rank
// sequence id (the receiver's dedup identity) and the producing task's
// attempt number.
func (c *Controller) route(rank int, env *runEnv, t core.Task, attempt uint32, out []core.Payload, scratch []fabric.Message) ([]fabric.Message, error) {
	batch := scratch[:0]
	for slot, consumers := range t.Outgoing {
		if len(consumers) == 0 {
			// A dead token reaching a sink is a deactivated branch's
			// non-result; only live payloads leave the dataflow.
			if !core.IsDead(out[slot]) {
				env.addSink(t.Id, out[slot])
			}
			continue
		}
		p := out[slot]
		// The last intra-rank consumer receives the payload pointer
		// in-memory (§IV-A); every other consumer needs the wire form.
		inMemoryIdx := -1
		if !c.opt.AlwaysSerialize {
			last := len(consumers) - 1
			if int(env.tmap.Shard(consumers[last])) == rank {
				inMemoryIdx = last
			}
		}
		wireConsumers := len(consumers)
		if inMemoryIdx >= 0 {
			wireConsumers--
		}
		var wire core.Payload
		var err error
		switch {
		case wireConsumers == 0:
			// Single local consumer: pure pointer pass.
		case wireConsumers == 1 && inMemoryIdx < 0:
			// Single wire consumer and nothing else references the slot:
			// the producer relinquished the buffer, hand it over as-is.
			wire, err = p.WireForm()
		default:
			// Fan-out: serialize once, share the immutable wire form. If
			// the raw payload is also pointer-passed locally, the shared
			// form must not alias it (the local consumer may mutate).
			wire, err = core.SharedPayload(p, wireConsumers, inMemoryIdx >= 0)
		}
		if err != nil {
			return batch, fmt.Errorf("mpi: task %d output slot %d: %w", t.Id, slot, err)
		}
		for i, dest := range consumers {
			mp := wire
			if i == inMemoryIdx {
				mp = p
			}
			m := fabric.Message{From: rank, To: int(env.tmap.Shard(dest)), Src: t.Id, Dest: dest, Payload: mp, Attempt: attempt}
			if env.seq != nil {
				m.Seq = env.seq[rank].Add(1)
			}
			batch = append(batch, m)
		}
	}
	err := env.fab.SendN(batch)
	clear(batch) // drop payload references until the next task reuses it
	return batch, err
}

var _ core.Controller = (*Controller)(nil)
