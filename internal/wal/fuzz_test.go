package wal

import (
	"bytes"
	"testing"
)

// FuzzRecordCodec drives the record encoder and scanner. Three properties:
//
//  1. Arbitrary bytes never panic or over-allocate — the scan always
//     terminates, and what it accepts fits in the input.
//  2. Torn-tail exactness: any prefix of a valid stream yields exactly the
//     records whose frames fit the prefix whole — the frame-end offsets are
//     the only valid cut points that preserve a record.
//  3. Round trip: encoding (epoch, payload) and scanning from epoch returns
//     the same pair, then a clean end of stream.
func FuzzRecordCodec(f *testing.F) {
	valid, frameEnds := batchRecords(3, 8)

	f.Add(valid, uint64(0), uint16(0))
	f.Add(valid[:frameEnds[0]], uint64(0), uint16(7))
	f.Add([]byte{0x42, 0x51, 0x43, 0x51}, uint64(1), uint16(3)) // magic alone
	f.Add([]byte(nil), uint64(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, epoch uint64, cut uint16) {
		// Property 1: the epoch values are untrusted too, so scan from the
		// fuzzed epoch and assert only what the input bounds.
		recs, size, _, err := scanRecords(bytes.NewReader(data), epoch, nil)
		if err != nil || size > int64(len(data)) || int64(recs)*recordHeader > size {
			t.Fatalf("arbitrary bytes: %d records, %d bytes of %d, err=%v", recs, size, len(data), err)
		}

		// Property 2.
		c := int(cut) % (len(valid) + 1)
		want, wantSize := 0, 0
		for _, end := range frameEnds {
			if end <= c {
				want, wantSize = want+1, end
			}
		}
		recs, size, torn, err := scanRecords(bytes.NewReader(valid[:c]), 0, nil)
		if err != nil || recs != want || size != int64(wantSize) || torn != (c != wantSize) {
			t.Fatalf("cut at %d: %d records, %d bytes, torn=%v, err=%v; want %d records, %d bytes (frame ends %v)",
				c, recs, size, torn, err, want, wantSize, frameEnds)
		}

		// Property 3.
		rec := appendRecord(nil, epoch, func(b []byte) []byte { return append(b, data...) })
		var got [][]byte
		recs, size, torn, err = scanRecords(bytes.NewReader(rec), epoch, func(e uint64, payload []byte) error {
			if e != epoch {
				t.Fatalf("round trip: epoch %d, want %d", e, epoch)
			}
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if err != nil || torn || recs != 1 || size != int64(len(rec)) || !bytes.Equal(got[0], data) {
			t.Fatalf("round trip: %d records, %d bytes, torn=%v, err=%v", recs, size, torn, err)
		}
	})
}
