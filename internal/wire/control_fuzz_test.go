package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// clampString is the string appendString encodes for s.
func clampString(s string) string { return s[:min(len(s), maxAddrLen)] }

// FuzzTicketDecode: decoding arbitrary bytes as a ticket body never
// panics, a body that decodes re-encodes to the same bytes, and any ticket
// built around the fuzzed address survives encode→decode.
func FuzzTicketDecode(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add(encodeTicket(Ticket{Action: ActionRun, Member: 3, Epoch: 2, Rank: 1, Ranks: 4,
		Addr: "127.0.0.1:4000", Members: []int{0, 3, 5, 7}, Retired: []int{2}})[frameHeaderSize:], "127.0.0.1:4000")
	f.Add(encodeTicket(Ticket{Action: ActionExit})[frameHeaderSize:], strings.Repeat("a", 1<<16))
	f.Fuzz(func(t *testing.T, body []byte, addr string) {
		if tk, err := decodeTicket(body); err == nil {
			if enc := encodeTicket(tk)[frameHeaderSize:]; !bytes.Equal(enc, body) {
				t.Fatalf("ticket %+v re-encodes to %x, decoded from %x", tk, enc, body)
			}
		}
		want := Ticket{Action: ActionRun, Member: 1, Epoch: 2, Rank: 0, Ranks: 2,
			Addr: addr, Members: []int{1, 4}, Retired: []int{}}
		got, err := decodeTicket(encodeTicket(want)[frameHeaderSize:])
		if err != nil {
			t.Fatalf("encoded ticket does not decode: %v", err)
		}
		want.Addr = clampString(addr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ticket round trip = %+v, want %+v", got, want)
		}
	})
}

// FuzzStatusDecode: decoding arbitrary bytes as a status body never
// panics, a body that decodes re-encodes to the same bytes, and any status
// carrying the fuzzed detail survives encode→decode — including a detail
// longer than the u16 length prefix can describe, which is cut to fit.
func FuzzStatusDecode(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add(encodeStatus(Status{Member: 2, Epoch: 5, OK: true, Detail: "replayed=3"})[frameHeaderSize:], "fenced")
	f.Add(encodeStatus(Status{Member: 1, Epoch: 1})[frameHeaderSize:], strings.Repeat("e", 1<<16))
	f.Fuzz(func(t *testing.T, body []byte, detail string) {
		// Only 0 and 1 are canonical OK bytes; any other decodes as false.
		if st, err := decodeStatus(body); err == nil && body[8] <= 1 {
			if enc := encodeStatus(st)[frameHeaderSize:]; !bytes.Equal(enc, body) {
				t.Fatalf("status %+v re-encodes to %x, decoded from %x", st, enc, body)
			}
		}
		want := Status{Member: 7, Epoch: 3, OK: false, Detail: detail}
		got, err := decodeStatus(encodeStatus(want)[frameHeaderSize:])
		if err != nil {
			t.Fatalf("encoded status (detail of %d bytes) does not decode: %v", len(detail), err)
		}
		want.Detail = clampString(detail)
		if got != want {
			t.Fatalf("status round trip = %+v, want %+v", got, want)
		}
	})
}
