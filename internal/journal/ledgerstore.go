package journal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/babelflow/babelflow-go/internal/core"
)

// LedgerStore adapts a Log into the durable backend of the lineage ledger
// (core.LedgerStore): each record is one completed task's serialized
// outputs. Opening a store replays the log's surviving records into an
// index, so a restarted run knows exactly which tasks need not re-execute.
// If a task appears more than once (a crash between the append and the
// ledger's acknowledgment can re-record it), the last record wins — the
// idempotence contract makes every copy equally valid.
//
// Record body layout (little-endian):
//
//	u64  task id
//	u32  slot count
//	{ u32 length | payload bytes } per slot
type LedgerStore struct {
	mu  sync.Mutex
	log *Log
	idx map[core.TaskId]Ref
}

// OpenLedgerStore opens (or creates) the journal at dir and indexes its
// surviving records. Undecodable bodies — a record that passed its CRC but
// does not parse, which only a software bug produces — are skipped like
// corrupt records: their tasks re-execute.
func OpenLedgerStore(dir string, opt Options) (*LedgerStore, error) {
	log, err := Open(dir, opt)
	if err != nil {
		return nil, err
	}
	s := &LedgerStore{log: log, idx: make(map[core.TaskId]Ref)}
	err = log.Scan(func(ref Ref, body []byte) error {
		if id, ok := decodeTaskId(body); ok {
			s.idx[id] = ref
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// Append journals the task's serialized output slots and indexes the record.
// Durability follows the log's sync policy. The store does not retain outs.
func (s *LedgerStore) Append(id core.TaskId, outs [][]byte) error {
	body := encodeRecord(id, outs)
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, err := s.log.Append(body)
	if err != nil {
		return err
	}
	s.idx[id] = ref
	return nil
}

// Get returns the journaled output slots of a task, or ok=false when the
// journal holds no (intact) record for it. The returned buffers are fresh
// copies owned by the caller.
func (s *LedgerStore) Get(id core.TaskId) ([][]byte, bool, error) {
	s.mu.Lock()
	ref, ok := s.idx[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	body, err := s.log.ReadAt(ref)
	if err != nil {
		// A record that rotted after indexing is equivalent to one skipped
		// at open: forget it and let the task re-execute.
		s.mu.Lock()
		delete(s.idx, id)
		s.mu.Unlock()
		return nil, false, nil
	}
	outs, err := decodeOutputs(body)
	if err != nil {
		s.mu.Lock()
		delete(s.idx, id)
		s.mu.Unlock()
		return nil, false, nil
	}
	return outs, true, nil
}

// Has reports whether the store indexes a record for the task.
func (s *LedgerStore) Has(id core.TaskId) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[id]
	return ok
}

// TaskIds returns the journaled task ids in ascending order.
func (s *LedgerStore) TaskIds() []core.TaskId {
	s.mu.Lock()
	ids := make([]core.TaskId, 0, len(s.idx))
	for id := range s.idx {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len returns the number of journaled tasks.
func (s *LedgerStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Sync flushes unsynced appends to stable storage.
func (s *LedgerStore) Sync() error { return s.log.Sync() }

// Committed returns the underlying log's crash-safe watermark: how many
// journaled records are guaranteed to survive a crash. Under group commit
// the ledger uses it to tell replayable history from the at-risk window.
func (s *LedgerStore) Committed() int { return s.log.Committed() }

// Close syncs and closes the underlying log.
func (s *LedgerStore) Close() error { return s.log.Close() }

// Stats returns the underlying log's counters.
func (s *LedgerStore) Stats() Stats { return s.log.Stats() }

// encodeRecord lays out a ledger record body: the task id, the slot count,
// then each slot as a u32 length and its bytes.
func encodeRecord(id core.TaskId, outs [][]byte) []byte {
	n := 12 // task id + slot count
	for _, o := range outs {
		n += 4 + len(o)
	}
	body := make([]byte, n)
	binary.LittleEndian.PutUint64(body[0:8], uint64(id))
	binary.LittleEndian.PutUint32(body[8:12], uint32(len(outs)))
	off := 12
	for _, o := range outs {
		binary.LittleEndian.PutUint32(body[off:off+4], uint32(len(o)))
		off += 4
		copy(body[off:], o)
		off += len(o)
	}
	return body
}

// decodeTaskId extracts the task id of a record body without materializing
// the slots, validating the full layout so truncated bodies are rejected.
func decodeTaskId(body []byte) (core.TaskId, bool) {
	if _, err := decodeOutputs(body); err != nil {
		return 0, false
	}
	return core.TaskId(binary.LittleEndian.Uint64(body[0:8])), true
}

// decodeOutputs parses a record body into per-slot copies.
func decodeOutputs(body []byte) ([][]byte, error) {
	if len(body) < 12 {
		return nil, fmt.Errorf("journal: ledger record too short (%d bytes)", len(body))
	}
	nslots := int(binary.LittleEndian.Uint32(body[8:12]))
	if nslots < 0 || nslots > len(body) {
		return nil, fmt.Errorf("journal: ledger record declares %d slots", nslots)
	}
	outs := make([][]byte, nslots)
	off := 12
	for i := 0; i < nslots; i++ {
		if len(body)-off < 4 {
			return nil, fmt.Errorf("journal: ledger record truncated at slot %d", i)
		}
		n := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		if n < 0 || len(body)-off < n {
			return nil, fmt.Errorf("journal: ledger record slot %d overruns body", i)
		}
		outs[i] = append([]byte(nil), body[off:off+n]...)
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("journal: ledger record has %d trailing bytes", len(body)-off)
	}
	return outs, nil
}
