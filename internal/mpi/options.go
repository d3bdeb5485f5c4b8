package mpi

import (
	"fmt"
	"time"

	"github.com/babelflow/babelflow-go/internal/core"
	"github.com/babelflow/babelflow-go/internal/journal"
	"github.com/babelflow/babelflow-go/internal/wire"
)

// Option configures a Controller at construction. Each functional option
// below (WithWorkers, WithRetry, …) sets one knob; options are applied left
// to right, so a later option overrides an earlier one for the same knob.
type Option interface {
	apply(*Options)
}

type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// WithWorkers sets the global worker budget (see Options.Workers).
func WithWorkers(n int) Option {
	return optionFunc(func(o *Options) { o.Workers = n })
}

// WithObserver installs the execution observer (see Options.Observer).
func WithObserver(obs core.Observer) Option {
	return optionFunc(func(o *Options) { o.Observer = obs })
}

// WithRetry sets the retry policy governing fault-tolerant execution
// (RunElastic): failed-epoch count, backoff, per-attempt timeout.
func WithRetry(p core.RetryPolicy) Option {
	return optionFunc(func(o *Options) { o.Retry = p })
}

// WithTransport installs a transport factory for in-process runs — the
// seam fault injection and custom interconnects plug into (see
// Options.Transport).
func WithTransport(t TransportFactory) Option {
	return optionFunc(func(o *Options) { o.Transport = t })
}

// WithInline selects inline execution (see Options.Inline).
func WithInline(inline bool) Option {
	return optionFunc(func(o *Options) { o.Inline = inline })
}

// WithFIFO selects arrival-order dispatch instead of most-critical-first
// (see Options.FIFO).
func WithFIFO(fifo bool) Option {
	return optionFunc(func(o *Options) { o.FIFO = fifo })
}

// WithNoSteal disables work stealing between ranks (see Options.NoSteal).
func WithNoSteal(noSteal bool) Option {
	return optionFunc(func(o *Options) { o.NoSteal = noSteal })
}

// WithAlwaysSerialize forces every payload through its wire form even for
// rank-local deliveries (see Options.AlwaysSerialize) — the configuration
// conformance tests use to prove serialization round-trips are lossless.
func WithAlwaysSerialize(always bool) Option {
	return optionFunc(func(o *Options) { o.AlwaysSerialize = always })
}

// WithJournal persists every rank's lineage ledger under dir (rank r under
// dir/rank-r) as a crash-safe record log, making runs resumable: a
// controller started over an existing journal replays journaled outputs
// and executes only the remaining frontier (see Options.Journal).
func WithJournal(dir string) Option {
	return optionFunc(func(o *Options) { o.Journal = dir })
}

// WithJournalSync selects the journal's fsync policy (see
// Options.JournalSync). Combining it with WithJournalGroupCommit is an
// error unless the policy is journal.SyncGroupCommit — the two options
// would otherwise silently overwrite each other depending on order.
func WithJournalSync(p journal.SyncPolicy) Option {
	return optionFunc(func(o *Options) {
		o.JournalSync = p
		o.syncSet, o.syncWas = true, p
	})
}

// WithJournalGroupCommit selects the journal.SyncGroupCommit fsync policy
// with the given commit window: a background committer fsyncs once per
// interval (or every records appends, whichever comes first), amortizing
// durability across the window. Both bounds must be positive — a zero or
// negative window is rejected at Initialize with a clear error rather than
// silently degrading durability. (The journal's own defaults are 2ms and
// 64 records.)
func WithJournalGroupCommit(interval time.Duration, records int) Option {
	return optionFunc(func(o *Options) {
		o.JournalSync = journal.SyncGroupCommit
		o.JournalCommitInterval = interval
		o.JournalCommitRecords = records
		o.groupSet = true
		if interval <= 0 || records <= 0 {
			o.optErr = fmt.Errorf("mpi: WithJournalGroupCommit window must be positive, got interval %v, records %d", interval, records)
		}
	})
}

// WithWireTier selects the wire transport tier for meshes built from the
// controller's WireOptions template (see Options.WireTier).
func WithWireTier(t wire.Tier) Option {
	return optionFunc(func(o *Options) { o.WireTier = t })
}

// WithHeartbeat tunes the wire failure detector: how often idle
// connections heartbeat and how long silence may last before a peer is
// declared lost. Flows into meshes built from the controller's WireOptions
// template (see Options.HeartbeatInterval).
func WithHeartbeat(interval, timeout time.Duration) Option {
	return optionFunc(func(o *Options) {
		o.HeartbeatInterval = interval
		o.HeartbeatTimeout = timeout
	})
}
