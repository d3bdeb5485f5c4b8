package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLedgerRecord: decoding arbitrary bytes as a ledger record body never
// panics, decodeTaskId accepts exactly the bodies decodeOutputs accepts,
// and an accepted body re-encodes to the same bytes.
func FuzzLedgerRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(7, nil))
	f.Add(encodeRecord(1, [][]byte{[]byte("one-a"), {}, []byte("one-c")}))
	truncated := encodeRecord(2, [][]byte{[]byte("slot")})
	f.Add(truncated[:len(truncated)-1])
	f.Fuzz(func(t *testing.T, body []byte) {
		outs, err := decodeOutputs(body)
		id, ok := decodeTaskId(body)
		if ok != (err == nil) {
			t.Fatalf("decodeTaskId ok = %v, decodeOutputs err = %v", ok, err)
		}
		if err != nil {
			return
		}
		if enc := encodeRecord(id, outs); !bytes.Equal(enc, body) {
			t.Fatalf("record of task %d re-encodes to %x, decoded from %x", id, enc, body)
		}
		again, err := decodeOutputs(encodeRecord(id, outs))
		if err != nil || !reflect.DeepEqual(again, outs) {
			t.Fatalf("round trip = %v, %v; want %v", again, err, outs)
		}
	})
}
