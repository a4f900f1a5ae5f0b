// Package wal implements the deterministic command log. Because the engines
// are deterministic, durability only requires logging each batch's *input*
// (the ordered transactions) before commit: replaying the log through the
// engine reproduces the exact database state — no ARIES-style physical
// logging, another practical payoff of determinism the paper leans on.
//
// Every batch is one record; appendRecord is the only encoder of the record
// frame and scanRecords the only decoder.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Record format (little endian):
//
//	magic u32 | epoch u64 | payloadLen u32 | crc32(payload) u32 | payload
//
// where payload is the txn.AppendBatch encoding of the batch.
const (
	magic        = 0x51435142 // "QCQB"
	recordHeader = 20         // magic + epoch + payloadLen + crc
)

// MaxRecordBytes caps a single record's payload (64 MiB). The length field is
// untrusted input during replay; anything above the cap is treated as a
// corrupt header, same as the codec allocation clamps. Far above any real
// batch — at ~100 B/txn a maximal batch is still two orders of magnitude
// smaller.
const MaxRecordBytes = 1 << 26

var (
	// errCorrupt, returned by a scan callback, rejects the record it was
	// handed as a torn tail: scanning stops before it, as at a bad frame.
	errCorrupt = errors.New("wal: corrupt record")
	// errStop, returned by a scan callback, ends the scan cleanly before the
	// record it was handed.
	errStop = errors.New("wal: stop scan")
)

// appendRecord appends one record for epoch to dst. body appends the payload
// to the slice it is given, so a batch is encoded straight into the frame
// with no staging copy; the header's length and CRC are filled in after it.
func appendRecord(dst []byte, epoch uint64, body func([]byte) []byte) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // payloadLen + crc, filled below
	dst = body(dst)
	payload := dst[at+recordHeader:]
	binary.LittleEndian.PutUint32(dst[at+12:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+16:], crc32.ChecksumIEEE(payload))
	return dst
}

// scanRecords reads the records of one segment from r, verifying each frame's
// magic, length (at most MaxRecordBytes), CRC and epoch — the first record
// must carry start, each later one the next epoch — and hands every intact
// record to fn (nil accepts all) in order. The payload is only valid during
// the call. fn may return errStop to end the scan cleanly, errCorrupt to
// reject the record as torn, or any other error to abort.
//
// recs and size count the records fn accepted and their frame bytes; torn
// reports that the scan stopped at a torn or damaged record rather than at a
// clean end of stream; err is fn's failure.
func scanRecords(r io.Reader, start uint64, fn func(epoch uint64, payload []byte) error) (recs int, size int64, torn bool, err error) {
	var hdr [recordHeader]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, size, err != io.EOF, nil
		}
		epoch := binary.LittleEndian.Uint64(hdr[4:])
		n := binary.LittleEndian.Uint32(hdr[12:])
		if binary.LittleEndian.Uint32(hdr[:]) != magic || n > MaxRecordBytes || epoch != start+uint64(recs) {
			return recs, size, true, nil
		}
		payload, err := readPayload(r, int(n), buf[:0])
		if err != nil || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[16:]) {
			return recs, size, true, nil
		}
		buf = payload
		if fn != nil {
			switch err := fn(epoch, payload); err {
			case nil:
			case errStop:
				return recs, size, false, nil
			case errCorrupt:
				return recs, size, true, nil
			default:
				return recs, size, true, err
			}
		}
		recs++
		size += recordHeader + int64(n)
	}
}

// readSegment runs scanRecords over the segment file at path. A segment the
// manifest lists but the directory lacks reads as a torn tail at its start.
func readSegment(fsys FS, path string, start uint64, fn func(epoch uint64, payload []byte) error) (recs int, size int64, torn bool, err error) {
	f, err := fsys.Open(path)
	if notExist(err) {
		return 0, 0, true, nil
	}
	if err != nil {
		return 0, 0, true, err
	}
	defer f.Close()
	return scanRecords(bufio.NewReaderSize(f, 1<<16), start, fn)
}

// readPayload reads exactly n payload bytes into buf (grown from its own
// capacity), in bounded chunks: the allocation tracks delivered bytes, not
// the untrusted length field.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	const chunk = 64 << 10
	for len(buf) < n {
		want := n - len(buf)
		if want > chunk {
			want = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, want)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf[:n], nil
}
