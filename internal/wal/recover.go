package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// RecoveryInfo summarizes what RecoverFrom reconstructed.
type RecoveryInfo struct {
	// SnapshotEpoch is the epoch of the restored snapshot (0 if none): the
	// number of batches the snapshot already covers.
	SnapshotEpoch uint64
	// Batches is the number of batches replayed from segments after the
	// snapshot.
	Batches int
	// NextEpoch is the wal epoch recovery stopped at: the total number of
	// batches the recovered state covers (SnapshotEpoch + Batches). A Writer
	// reopened on the same directory continues from here.
	NextEpoch uint64
	// Term is the replication term persisted in the manifest (0 if the log
	// predates terms or was never part of a replicated cluster).
	Term uint64
}

// RecoverFrom rebuilds pre-crash state from a wal directory: it restores the
// manifest's snapshot into store (if any — store may be nil for a log with no
// snapshot) and replays every intact logged batch after it, in epoch order,
// through apply. Each transaction is re-resolved against reg before apply
// sees it; nothing else is re-resolved — per the client contract, in-flight
// unlogged submissions are the clients' to retry.
//
// RecoverFrom never mutates the directory (pass the crashed FaultFS straight
// in); it stops cleanly at the first torn record, epoch gap, or missing
// segment — everything beyond is unreachable post-crash state that the next
// Open will truncate. fsys nil means the real disk.
func RecoverFrom(dir string, fsys FS, store *storage.Store, reg txn.Registry, apply func(epoch uint64, txns []*txn.Txn) error) (RecoveryInfo, error) {
	if fsys == nil {
		fsys = OSFS
	}
	var info RecoveryInfo
	man, found, err := readManifest(fsys, dir)
	if err != nil {
		return info, err
	}
	if !found {
		return info, nil // nothing ever logged: recovery is a no-op
	}
	info.Term = man.term
	if man.snapName != "" {
		if store == nil {
			return info, fmt.Errorf("wal: recover %s: snapshot present but no store to restore into", dir)
		}
		if err := restoreSnapshotFile(fsys, filepath.Join(dir, man.snapName), man.snapEpoch, store); err != nil {
			return info, err
		}
		info.SnapshotEpoch = man.snapEpoch
	}
	expect := man.snapEpoch
	for _, seg := range man.segments {
		if seg.start > expect {
			break // gap: the previous segment lost its tail, nothing later is reachable
		}
		n, _, torn, err := readSegment(fsys, filepath.Join(dir, seg.name), expect, func(epoch uint64, payload []byte) error {
			// Fresh buffer per record: DecodeBatch may alias its input.
			txns, _, err := txn.DecodeBatch(append([]byte(nil), payload...))
			if err != nil {
				// The CRC passed but the payload does not decode: the record
				// never finished its way to disk coherently — a torn tail.
				return errCorrupt
			}
			for _, t := range txns {
				if err := reg.Resolve(t); err != nil {
					return fmt.Errorf("wal: recover: resolve: %w", err)
				}
			}
			if err := apply(epoch, txns); err != nil {
				return fmt.Errorf("wal: recover: apply: %w", err)
			}
			return nil
		})
		expect += uint64(n)
		info.Batches += n
		if err != nil {
			return info, err
		}
		if torn {
			break // torn tail inside this segment
		}
	}
	info.NextEpoch = expect
	return info, nil
}

// restoreSnapshotFile loads one snapshot file (header + storage image) into
// store, verifying the header against the manifest's epoch.
func restoreSnapshotFile(fsys FS, path string, epoch uint64, store *storage.Store) error {
	f, err := fsys.Open(path)
	if err != nil {
		return fmt.Errorf("wal: recover: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("wal: recover %s: truncated snapshot header", filepath.Base(path))
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != snapMagic {
		return fmt.Errorf("wal: recover %s: bad snapshot magic", filepath.Base(path))
	}
	if got := binary.LittleEndian.Uint64(hdr[4:]); got != epoch {
		return fmt.Errorf("wal: recover %s: snapshot epoch %d, manifest says %d", filepath.Base(path), got, epoch)
	}
	if err := store.RestoreSnapshot(r); err != nil {
		return fmt.Errorf("wal: recover %s: %w", filepath.Base(path), err)
	}
	return nil
}
