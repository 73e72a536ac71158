package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"

	fast "github.com/fastfhe/fast"
	"github.com/fastfhe/fast/internal/fault"
	"github.com/fastfhe/fast/internal/obs"
)

// sessionStore is fastd's crash-safe persistence layer. Each session owns
// up to three files in the state directory:
//
//   - <id>.snap, the fast.SessionSnapshot wire format (versioned,
//     checksummed key material). It is written at create and rewritten only
//     when a session whose on-disk state is stale (a degraded write) is
//     evicted; restores never rewrite it.
//   - <id>.epoch, a 40-byte record of the session's restore count (the
//     encryptor's reseeding epoch, see fast.SessionMeta.Restores): the
//     count as a little-endian uint64 and the SHA-256 of those 8 bytes.
//     Every restore bumps it; the effective count is the larger of the
//     epoch record and the snapshot's own Meta.Restores.
//   - <id>.idem, the append-only idempotency journal of binary frames (see
//     idemFrameMagic).
//
// Every write is made durable before it is relied on:
//
//   - snapshots, epoch records and compacted journals are written to a temp
//     file, fsync'd, atomically renamed into place, and the directory
//     fsync'd — a crash at any point leaves either the old file or the new
//     one, never a torn file;
//   - journal appends are fsync'd before the response that depends on them
//     is released to the client.
//
// Corruption is detected, never trusted: a snapshot or epoch record that
// fails its checksum is skipped with a typed error (fast.ErrCorruptSnapshot)
// and counted — a wrong decrypt, or a reused encryption epoch, from a torn
// or bit-flipped file is structurally impossible.
//
// The store consults a fault.Injector (DiskWrite kind) so the chaos suite
// can exercise the degraded path: a failed durability write is retried once,
// then the session is served resident-only and the failure counted.
type sessionStore struct {
	dir    string
	inj    *fault.Injector
	logger *slog.Logger

	mWriteFailures *obs.Counter // fastd.store.write_failures (post-retry)
	mWriteFaults   *obs.Counter // fastd.store.write_faults (injected)
}

const (
	snapSuffix  = ".snap"
	epochSuffix = ".epoch"
	idemSuffix  = ".idem"
)

// errInjectedDiskWrite is the synthetic error of a DiskWrite fault.
var errInjectedDiskWrite = errors.New("fastd: injected disk-write fault")

func openSessionStore(dir string, inj *fault.Injector, reg *obs.Registry, logger *slog.Logger) (*sessionStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fastd: state dir: %w", err)
	}
	st := &sessionStore{dir: dir, inj: inj, logger: logger}
	if reg != nil {
		st.mWriteFailures = reg.Counter("fastd.store.write_failures")
		st.mWriteFaults = reg.Counter("fastd.store.write_faults")
	}
	return st, nil
}

func (st *sessionStore) snapshotPath(id string) string { return filepath.Join(st.dir, id+snapSuffix) }
func (st *sessionStore) epochPath(id string) string    { return filepath.Join(st.dir, id+epochSuffix) }
func (st *sessionStore) idemPath(id string) string     { return filepath.Join(st.dir, id+idemSuffix) }

// scan returns the session IDs with a snapshot on disk.
func (st *sessionStore) scan() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, snapSuffix) {
			ids = append(ids, strings.TrimSuffix(name, snapSuffix))
		}
	}
	return ids, nil
}

// checkFault surfaces an injected DiskWrite fault as a write error.
func (st *sessionStore) checkFault() error {
	if st.inj.DiskWriteFails() {
		st.mWriteFaults.Inc()
		return errInjectedDiskWrite
	}
	return nil
}

// retryOnce is the store's recovery policy for a durability write: retry
// once, then count and report the failure. Callers decide whether a failure
// degrades (resident-only session) or aborts (nothing to serve without it).
func (st *sessionStore) retryOnce(what, id string, write func() error) error {
	err := write()
	if err == nil {
		return nil
	}
	if err = write(); err == nil {
		return nil
	}
	st.mWriteFailures.Inc()
	st.logger.Warn(what+" write failed", "session", id, "error", err.Error())
	return err
}

// writeAtomic durably replaces final with what write produces: temp file,
// fsync, atomic rename, directory fsync.
func (st *sessionStore) writeAtomic(final string, write func(io.Writer) error) error {
	if err := st.checkFault(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, filepath.Base(final)+".tmp.*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	bw := bufio.NewWriterSize(tmp, 256<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return st.syncDir()
}

// saveSnapshotRetry durably persists the session's full state under its ID.
// The write-ahead ordering (snapshot before the create response, journal
// append before the eval response) is what makes a SIGKILL at any instant
// recoverable.
func (st *sessionStore) saveSnapshotRetry(fctx *fast.Context, meta fast.SessionMeta) error {
	return st.retryOnce("session snapshot", meta.ID, func() error {
		return st.writeAtomic(st.snapshotPath(meta.ID), func(w io.Writer) error {
			return fctx.WriteSessionSnapshot(w, meta)
		})
	})
}

// epochRecordSize is the on-disk size of an epoch record.
const epochRecordSize = 8 + sha256.Size

// saveEpochRetry durably records a session's restore count — the one piece
// of session state a restore changes — in place of rewriting its snapshot.
func (st *sessionStore) saveEpochRetry(id string, restores uint64) error {
	var rec [epochRecordSize]byte
	binary.LittleEndian.PutUint64(rec[:8], restores)
	sum := sha256.Sum256(rec[:8])
	copy(rec[8:], sum[:])
	return st.retryOnce("session epoch", id, func() error {
		return st.writeAtomic(st.epochPath(id), func(w io.Writer) error {
			_, err := w.Write(rec[:])
			return err
		})
	})
}

// loadEpoch reads a session's epoch record; a missing record is epoch 0 (no
// restore recorded yet). A record that fails its checksum is corruption,
// never "assume 0": that would replay an earlier epoch's randomness.
func (st *sessionStore) loadEpoch(id string) (uint64, error) {
	rec, err := os.ReadFile(st.epochPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(rec) != epochRecordSize {
		return 0, fmt.Errorf("fastd: session %q epoch record is %d bytes: %w", id, len(rec), fast.ErrCorruptSnapshot)
	}
	if sum := sha256.Sum256(rec[:8]); !bytes.Equal(sum[:], rec[8:]) {
		return 0, fmt.Errorf("fastd: session %q epoch record checksum mismatch: %w", id, fast.ErrCorruptSnapshot)
	}
	return binary.LittleEndian.Uint64(rec[:8]), nil
}

// loadSnapshot reads and checksum-verifies a session snapshot and its epoch
// record. Meta.Restores is the larger of the two counts. Key material is not
// expanded yet — the caller bumps Meta.Restores first, then Restore()s.
func (st *sessionStore) loadSnapshot(id string) (*fast.SessionSnapshot, error) {
	data, err := os.ReadFile(st.snapshotPath(id))
	if err != nil {
		return nil, err
	}
	snap, err := fast.DecodeSessionSnapshot(data)
	if err != nil {
		return nil, err
	}
	epoch, err := st.loadEpoch(id)
	if err != nil {
		return nil, err
	}
	snap.Meta.Restores = max(snap.Meta.Restores, epoch)
	return snap, nil
}

// remove deletes a session's files (best-effort; a missing file is not an
// error) and syncs the directory. The snapshot goes first: a crash part-way
// leaves an invisible leftover, never a snapshot without its epoch record.
func (st *sessionStore) remove(id string) {
	for _, p := range []string{st.snapshotPath(id), st.epochPath(id), st.idemPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			st.logger.Warn("session state remove failed", "session", id, "path", p, "error", err.Error())
		}
	}
	_ = st.syncDir()
}

// syncDir fsyncs the state directory so renames and unlinks are durable.
func (st *sessionStore) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---- Idempotency journal ---------------------------------------------------

// Journal frame layout (little-endian), one frame per completed request:
//
//	magic   [4]byte  idemFrameMagic
//	keyLen  uint32
//	bodyLen uint32
//	status  uint32
//	key     [keyLen]byte
//	body    [bodyLen]byte  the response body, raw
//	crc     uint32         CRC-32C over every preceding byte of the frame
//
// Journals written before the binary format are JSON lines
// ({"key","status","body":base64}); a JSON line starts with '{', a frame
// with 'F', so each record's format is unambiguous.
var idemFrameMagic = [4]byte{'F', 'I', 'J', 1}

const idemFrameOverhead = 16 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendIdemFrame appends rec's frame to buf.
func appendIdemFrame(buf []byte, rec idemRecord) []byte {
	start := len(buf)
	buf = slices.Grow(buf, idemFrameOverhead+len(rec.Key)+len(rec.Body))
	buf = append(buf, idemFrameMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Body)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Status))
	buf = append(buf, rec.Key...)
	buf = append(buf, rec.Body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// decodeIdemJournal walks a journal's records in order. It stops at the
// first short or corrupt frame — the torn tail of a crash mid-append, whose
// fsync never completed, so no response was released against it — and
// returns the records before it, the number of bytes they span, and how many
// legacy JSON lines it read (an unparsable one is skipped, as the JSON
// loader always did). Record bodies alias data.
func decodeIdemJournal(data []byte) (recs []idemRecord, n, legacy int) {
	for n < len(data) {
		rest := data[n:]
		if rest[0] == '{' || rest[0] == '\n' {
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line = rest[:i+1]
			}
			n += len(line)
			legacy++
			var rec idemRecord
			if json.Unmarshal(line, &rec) == nil {
				recs = append(recs, rec)
			}
			continue
		}
		if len(rest) < idemFrameOverhead || !bytes.Equal(rest[:4], idemFrameMagic[:]) {
			return recs, n, legacy
		}
		keyLen := uint64(binary.LittleEndian.Uint32(rest[4:]))
		bodyLen := uint64(binary.LittleEndian.Uint32(rest[8:]))
		end := 16 + keyLen + bodyLen
		if end+4 > uint64(len(rest)) {
			return recs, n, legacy
		}
		if crc32.Checksum(rest[:end], castagnoli) != binary.LittleEndian.Uint32(rest[end:]) {
			return recs, n, legacy
		}
		keyEnd := 16 + keyLen
		recs = append(recs, idemRecord{
			Key:    string(rest[16:keyEnd]),
			Status: int(binary.LittleEndian.Uint32(rest[12:])),
			Body:   rest[keyEnd:end:end],
		})
		n += int(end + 4)
	}
	return recs, n, legacy
}

// appendIdem durably appends one completed-request record to the session's
// idempotency journal: one frame in one write, fsync'd before returning —
// and therefore before the recorded response reaches the client, so a retry
// arriving after a crash always finds the record the original response was
// based on.
func (st *sessionStore) appendIdem(id string, rec idemRecord) error {
	if err := st.checkFault(); err != nil {
		return err
	}
	f, err := os.OpenFile(st.idemPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(appendIdemFrame(nil, rec)); err != nil {
		return err
	}
	return f.Sync()
}

// appendIdemRetry is appendIdem with the retry-once-then-degrade policy.
func (st *sessionStore) appendIdemRetry(id string, rec idemRecord) error {
	return st.retryOnce("idempotency journal append", id, func() error { return st.appendIdem(id, rec) })
}

// loadIdem replays a session's idempotency journal with one read. clean is
// false when the file must be rewritten before anything is appended to it:
// it ends in a torn frame (appends after it would be unreachable) or holds
// legacy JSON lines.
func (st *sessionStore) loadIdem(id string) (recs []idemRecord, clean bool) {
	data, err := os.ReadFile(st.idemPath(id))
	if err != nil {
		return nil, true
	}
	recs, n, legacy := decodeIdemJournal(data)
	if n < len(data) {
		st.logger.Warn("idempotency journal: skipping torn tail", "session", id, "bytes", len(data)-n)
	}
	return recs, n == len(data) && legacy == 0
}

// rewriteIdem compacts a session's journal to exactly the given records
// (atomic tmp+rename like snapshots), in the binary format.
func (st *sessionStore) rewriteIdem(id string, recs []idemRecord) error {
	if len(recs) == 0 {
		if err := st.checkFault(); err != nil {
			return err
		}
		if err := os.Remove(st.idemPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return st.syncDir()
	}
	return st.writeAtomic(st.idemPath(id), func(w io.Writer) error {
		var frame []byte
		for _, rec := range recs {
			frame = appendIdemFrame(frame[:0], rec)
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
		return nil
	})
}
