package experiments

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/recio"
	"repro/internal/vfs"
)

// Checkpoint file framing: the same crash-safe record stream as the v2
// sniffer traces (internal/recio), with its own magic so the two file
// kinds cannot be confused. Each record is one gob-encoded
// checkpointEntry; gob (rather than JSON) round-trips every float the
// drivers can produce, including ±Inf power levels.
const (
	checkpointMagic   = 0x4D4D434B // "MMCK"
	checkpointVersion = 1
	// CheckpointFile is the campaign checkpoint's file name inside the
	// capture directory.
	CheckpointFile = "campaign.ckpt"
	// MaxCheckpointRecord bounds one record payload — the gob entry both
	// campaign.ckpt and the shard protocol's result messages carry.
	// Results hold whole experiment series, so it is far looser than
	// recio.DefaultMaxRecord. Encoding refuses a larger record and every
	// reader accepts up to it, so whatever is written reads back.
	MaxCheckpointRecord = 1 << 24
)

// ErrCheckpointMismatch reports that a checkpoint opened for resume was
// written by a different campaign: its records carry another options
// fingerprint (seed/fidelity changed) or cover experiments that are not
// part of the requested runner set. Resuming over it would silently
// re-run or merge mismatched results, so callers must fail loudly.
var ErrCheckpointMismatch = errors.New("checkpoint does not match the requested campaign")

// errCheckpointSealed rejects writes after Close: a sealed stream has
// its footer down and cannot take more records.
var errCheckpointSealed = errors.New("checkpoint already sealed")

// checkpointEntry is one persisted experiment outcome.
type checkpointEntry struct {
	// Fingerprint binds the entry to the options that produced it;
	// entries from a different seed or fidelity are ignored on resume.
	Fingerprint string
	// Result is the completed experiment's outcome.
	Result core.Result
}

// optionsFingerprint identifies the result-relevant options. CaptureDir
// is deliberately excluded: captures are a side effect, never an input.
func optionsFingerprint(o Options) string {
	return fmt.Sprintf("v%d seed=%d quick=%v", checkpointVersion, o.Seed, o.Quick)
}

// OptionsFingerprint exposes the checkpoint fingerprint for the given
// options — the binding every persisted or shard-transported result
// record carries so it can never be merged into a campaign with a
// different seed or fidelity.
func OptionsFingerprint(o Options) string { return optionsFingerprint(o) }

// EncodeCheckpointRecord frames one finished result as a campaign.ckpt
// record payload: the gob-encoded (fingerprint, result) entry that both
// the durable checkpoint and the shard worker protocol speak. The
// fingerprint is derived from the options the result was produced with.
func EncodeCheckpointRecord(o Options, res core.Result) ([]byte, error) {
	return encodeEntry(checkpointEntry{Fingerprint: optionsFingerprint(o), Result: res})
}

// DecodeCheckpointRecord parses a campaign.ckpt record payload back into
// its options fingerprint and result.
func DecodeCheckpointRecord(payload []byte) (fingerprint string, res core.Result, err error) {
	var e checkpointEntry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return "", core.Result{}, err
	}
	return e.Fingerprint, e.Result, nil
}

// encodeEntry gob-encodes one checkpoint entry within
// MaxCheckpointRecord.
func encodeEntry(e checkpointEntry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	if buf.Len() > MaxCheckpointRecord {
		return nil, fmt.Errorf("checkpoint record for %s is %d bytes, above the %d-byte bound",
			e.Result.ID, buf.Len(), MaxCheckpointRecord)
	}
	return buf.Bytes(), nil
}

// Checkpoint is a durable record of finished experiments inside one
// campaign. Every completed result is appended and flushed immediately,
// so a killed process loses at most the experiment it was running;
// OpenCheckpoint salvages the intact prefix of a torn file.
//
// Record and Close are safe to call concurrently: a signal handler can
// seal the checkpoint mid-campaign and is guaranteed never to cut an
// in-flight record in half — Close waits for the current write, then
// lays down the stream footer. Close is idempotent.
type Checkpoint struct {
	fsys vfs.FS
	path string
	fp   string

	mu      sync.Mutex
	f       vfs.File
	w       *recio.Writer
	sealed  bool
	diskErr error // first disk fault; poisons all later writes
	done    map[string]core.Result
	foreign map[string]int // other-fingerprint record counts seen on load
}

// OpenCheckpoint opens (or creates) the checkpoint under dir and loads
// every finished result recorded with the same options fingerprint.
// Entries from other fingerprints — or a torn tail from a crash — are
// dropped, and the file is compacted to the surviving entries.
func OpenCheckpoint(dir string, o Options) (*Checkpoint, error) {
	return openCheckpoint(o.fs(), dir, o, nil)
}

// OpenCheckpointFS is OpenCheckpoint over an explicit filesystem —
// the seam fault injection and crash-point enumeration drive.
func OpenCheckpointFS(fsys vfs.FS, dir string, o Options) (*Checkpoint, error) {
	return openCheckpoint(fsys, dir, o, nil)
}

// ResumeCheckpoint opens the checkpoint under dir for resuming the
// campaign over the requested experiment IDs. Unlike OpenCheckpoint it
// refuses — with ErrCheckpointMismatch, before touching the file — a
// checkpoint whose records were written under a different options
// fingerprint or cover experiments outside the requested set: either
// means the caller is resuming a different campaign than the one that
// was interrupted. A missing or empty checkpoint is not an error (a
// campaign killed before its first record resumes from scratch).
func ResumeCheckpoint(dir string, o Options, requested []string) (*Checkpoint, error) {
	return openCheckpoint(o.fs(), dir, o, requested)
}

// ResumeCheckpointFS is ResumeCheckpoint over an explicit filesystem.
func ResumeCheckpointFS(fsys vfs.FS, dir string, o Options, requested []string) (*Checkpoint, error) {
	return openCheckpoint(fsys, dir, o, requested)
}

// openCheckpoint loads, optionally validates (requested non-nil), and
// compacts the checkpoint.
func openCheckpoint(fsys vfs.FS, dir string, o Options, requested []string) (*Checkpoint, error) {
	c := &Checkpoint{
		fsys:    fsys,
		path:    filepath.Join(dir, CheckpointFile),
		fp:      optionsFingerprint(o),
		done:    make(map[string]core.Result),
		foreign: make(map[string]int),
	}
	entries := c.load()
	if requested != nil {
		// Validate before the compacting rewrite below: a mismatch must
		// leave the original file intact as evidence.
		if err := c.resumeCheck(entries, requested); err != nil {
			return nil, err
		}
	}

	// Rewrite atomically: the old file may end in a torn record (no
	// footer), which recio cannot append to. The temp file carries the
	// surviving entries; rename keeps the open handle valid for
	// appending. Sync before the rename and the parent directory after
	// it — otherwise a crash in the window can publish an empty or torn
	// checkpoint over a good one.
	tmp := c.path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	w, err := recio.NewWriter(f, checkpointMagic, checkpointVersion)
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	c.f, c.w = f, w
	for _, e := range entries {
		if err := c.append(e); err != nil {
			f.Close()
			fsys.Remove(tmp)
			return nil, err
		}
		c.done[e.Result.ID] = e.Result
	}
	if err := w.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.Rename(tmp, c.path); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(c.path)); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// resumeCheck diagnoses a checkpoint that cannot safely seed a resume
// of the requested campaign.
func (c *Checkpoint) resumeCheck(entries []checkpointEntry, requested []string) error {
	if len(c.foreign) > 0 {
		fps := make([]string, 0, len(c.foreign))
		n := 0
		for fp, cnt := range c.foreign {
			fps = append(fps, fmt.Sprintf("%q", fp))
			n += cnt
		}
		sort.Strings(fps)
		return fmt.Errorf("%w: %d record(s) were written with options %s, this campaign is %q (different -seed or -quick?)",
			ErrCheckpointMismatch, n, strings.Join(fps, ", "), c.fp)
	}
	want := make(map[string]bool, len(requested))
	for _, id := range requested {
		want[id] = true
	}
	var extra []string
	for _, e := range entries {
		if !want[e.Result.ID] {
			extra = append(extra, e.Result.ID)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%w: checkpoint records experiment(s) %s that the requested campaign does not include",
			ErrCheckpointMismatch, strings.Join(extra, ", "))
	}
	return nil
}

// load reads every salvageable same-fingerprint entry from an existing
// checkpoint, tallying foreign-fingerprint records in c.foreign. Any
// error — missing file, foreign magic, torn tail, mid-stream corruption
// — just ends the salvage; a checkpoint is an optimization, never a
// correctness requirement.
func (c *Checkpoint) load() []checkpointEntry {
	f, err := c.fsys.Open(c.path)
	if err != nil {
		return nil
	}
	defer f.Close()
	r, _, err := recio.NewReader(bufio.NewReader(f), checkpointMagic)
	if err != nil {
		return nil
	}
	r.MaxRecord = MaxCheckpointRecord
	var out []checkpointEntry
	for {
		payload, err := r.Next()
		if err != nil {
			return out // io.EOF, truncation, or corruption: keep the prefix
		}
		var e checkpointEntry
		if gob.NewDecoder(bytes.NewReader(payload)).Decode(&e) != nil {
			return out
		}
		if e.Fingerprint == c.fp {
			out = append(out, e)
		} else {
			c.foreign[e.Fingerprint]++
		}
	}
}

// append writes one entry durably. Callers hold c.mu (or own the
// checkpoint exclusively, as openCheckpoint does before returning it).
func (c *Checkpoint) append(e checkpointEntry) error {
	payload, err := encodeEntry(e)
	if err != nil {
		return err
	}
	if err := c.w.Append(payload); err != nil {
		return c.seal("checkpoint-append", err)
	}
	// Sync per record: the whole point is surviving a SIGKILL — or a
	// power cut — between experiments.
	if err := c.w.Sync(); err != nil {
		return c.seal("checkpoint-sync", err)
	}
	return nil
}

// seal records the first disk fault and poisons the checkpoint: the
// stream may end in a torn record, so no further appends and no footer
// are attempted over it. The salvaged prefix stays valid for a later
// resume on a healthy disk.
func (c *Checkpoint) seal(op string, err error) error {
	if c.diskErr == nil {
		c.diskErr = vfs.WrapFault(op, c.path, err)
	}
	return c.diskErr
}

// Done returns the recorded result for an experiment ID, if this
// campaign already finished it.
func (c *Checkpoint) Done(id string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.done[id]
	return r, ok
}

// Len returns the number of finished experiments on record.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Record persists one finished experiment and flushes it to disk. It
// fails once the checkpoint has been sealed by Close.
func (c *Checkpoint) Record(res core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.diskErr != nil {
		return c.diskErr
	}
	if c.sealed {
		return errCheckpointSealed
	}
	if err := c.append(checkpointEntry{Fingerprint: c.fp, Result: res}); err != nil {
		return err
	}
	c.done[res.ID] = res
	return nil
}

// Close seals the checkpoint with the stream footer. It is idempotent
// and safe to call concurrently with Record: an in-flight record is
// written out whole before the footer lands, which is what lets a
// SIGTERM handler flush the checkpoint instead of dying mid-write. A
// checkpoint that is never closed (SIGKILL) remains loadable via
// prefix salvage.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		return nil
	}
	c.sealed = true
	var err error
	if c.diskErr != nil {
		// The stream may end in a torn record; writing a footer over it
		// would turn honest truncation into mid-stream corruption. Leave
		// the salvageable prefix as-is.
		err = c.diskErr
		c.f.Close()
		return err
	}
	err = c.w.Close()
	if err == nil {
		err = c.w.Sync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}
