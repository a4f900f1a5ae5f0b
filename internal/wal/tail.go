package wal

import (
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
)

// ErrTruncated is returned by ReadRange when the requested range begins
// below the log's snapshot epoch: those records were truncated away and are
// only reachable through the snapshot image (ReadSnapshotRaw).
var ErrTruncated = errors.New("wal: requested epochs truncated behind a snapshot")

// ReadRange streams the raw (already-framed-payload) records for epochs in
// [from, to) through fn, in epoch order. It is the replication leader's tail
// reader: a standby that announces its last contiguous epoch gets exactly
// the gap, record payloads verbatim, without a decode/re-encode round trip.
//
// ReadRange never mutates the directory and tolerates a concurrently
// appending Writer: it stops cleanly at the first torn record, CRC mismatch,
// epoch break, or missing segment (the live tail may simply end mid-growth),
// returning the first epoch it did NOT stream — the caller re-requests from
// there once more records land. from below the snapshot epoch returns
// ErrTruncated; the payload passed to fn is only valid during the call.
func ReadRange(dir string, fsys FS, from, to uint64, fn func(epoch uint64, payload []byte) error) (uint64, error) {
	if fsys == nil {
		fsys = OSFS
	}
	man, found, err := readManifest(fsys, dir)
	if err != nil {
		return from, err
	}
	if !found {
		return from, nil
	}
	if from < man.snapEpoch {
		return from, ErrTruncated
	}
	expect := man.snapEpoch
	for _, seg := range man.segments {
		if expect >= to {
			break
		}
		if seg.start > expect {
			break // gap: an unsynced tail was lost; nothing later is reachable
		}
		n, _, torn, err := readSegment(fsys, filepath.Join(dir, seg.name), expect, func(epoch uint64, payload []byte) error {
			if epoch >= to {
				return errStop
			}
			if epoch < from {
				return nil
			}
			return fn(epoch, payload)
		})
		expect += uint64(n)
		if err != nil {
			return expect, err
		}
		if torn {
			break
		}
	}
	if expect > to {
		expect = to
	}
	return expect, nil
}

// ReadSnapshotRaw returns the log's current snapshot image (the bytes after
// the snapshot file header) and its epoch, for shipping to a standby whose
// requested tail was truncated away. Returns an error when the log has no
// snapshot; never mutates the directory.
func ReadSnapshotRaw(dir string, fsys FS) (uint64, []byte, error) {
	if fsys == nil {
		fsys = OSFS
	}
	man, found, err := readManifest(fsys, dir)
	if err != nil {
		return 0, nil, err
	}
	if !found || man.snapName == "" {
		return 0, nil, errors.New("wal: no snapshot to read")
	}
	f, err := fsys.Open(filepath.Join(dir, man.snapName))
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	all, err := io.ReadAll(f)
	if err != nil {
		return 0, nil, err
	}
	if len(all) < 12 || binary.LittleEndian.Uint32(all[:4]) != snapMagic {
		return 0, nil, errors.New("wal: bad snapshot file header")
	}
	if got := binary.LittleEndian.Uint64(all[4:]); got != man.snapEpoch {
		return 0, nil, errors.New("wal: snapshot epoch disagrees with manifest")
	}
	return man.snapEpoch, all[12:], nil
}
