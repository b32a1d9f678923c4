// Package shard fans one experiment campaign across N worker processes
// while keeping the merged output byte-identical to a single-process
// run. The coordinator fork/execs workers (mmsim -shard-worker), hands
// them experiment slices from a pull-based work queue over stdin, and
// merges the fingerprinted result records arriving on their stdouts
// back into campaign order. Robustness is the point: heartbeats and
// progress deadlines classify dead vs hung workers, a lost worker's
// in-flight slice is retried on a surviving worker with capped jittered
// backoff (falling back to the campaign's structured FAIL synthesis
// after max attempts), stragglers are speculatively re-executed on idle
// workers (work-stealing; duplicates dedupe harmlessly because every
// execution is deterministic), and when fork/exec is unavailable the
// coordinator degrades to in-process execution.
//
// Wire protocol: both pipe directions are recio record streams (the
// same crash-safe framing as campaign.ckpt and .vubiq captures) under
// the shard magic. Every record payload is one tag byte followed by a
// gob body. Result records reuse the campaign.ckpt record format
// verbatim after the tag — a gob (options fingerprint, result) entry —
// so the coordinator validates provenance before merging and can feed
// the bytes straight into the durable checkpoint machinery.
package shard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/recio"
)

const (
	// Magic identifies a shard protocol stream; distinct from the
	// checkpoint and capture magics so the file kinds cannot be confused.
	Magic = 0x4D4D5348 // "MMSH"
	// Version is the protocol version carried in the stream header.
	Version = 1
)

// Record tags: the first payload byte of every protocol record.
const (
	// tagHello (coordinator→worker) carries the session configuration.
	tagHello = 'O'
	// tagAssign (coordinator→worker) assigns one experiment slice.
	tagAssign = 'A'
	// tagHeartbeat (worker→coordinator) proves liveness while a long
	// experiment runs.
	tagHeartbeat = 'H'
	// tagStart (worker→coordinator) marks an experiment launch
	// (progress, for straggler/hang classification).
	tagStart = 'S'
	// tagResult (worker→coordinator) carries one finished experiment as
	// a campaign.ckpt record payload (gob fingerprint+result).
	tagResult = 'R'
	// tagDone (worker→coordinator) acknowledges slice completion; the
	// worker is idle and wants more work.
	tagDone = 'D'
)

// maxWireRecord bounds a single protocol record: the tag byte plus the
// largest payload, a campaign.ckpt result record.
const maxWireRecord = 1 + experiments.MaxCheckpointRecord

// helloMsg configures a worker session. Everything a worker needs
// arrives here rather than on its command line, so the same argv works
// for every session.
type helloMsg struct {
	// Opts are the campaign options (seed, fidelity, capture dir).
	Opts experiments.Options
	// Deadline is the per-experiment wall-clock watchdog budget.
	Deadline time.Duration
	// SweepWorkers sets the worker's intra-experiment pool width.
	SweepWorkers int
	// AuditMode is the runtime invariant auditing mode ("off", "warn",
	// "strict").
	AuditMode string
	// HeartbeatEvery is the worker's heartbeat cadence.
	HeartbeatEvery time.Duration
}

// assignMsg hands a worker one slice of experiment IDs to run in order.
type assignMsg struct {
	Seq uint64
	IDs []string
}

// startMsg reports that the worker began running one experiment.
type startMsg struct {
	Seq uint64
	ID  string
}

// doneMsg reports that the worker finished its current slice.
type doneMsg struct {
	Seq uint64
}

// errWriterClosed rejects sends after the stream footer went down.
var errWriterClosed = errors.New("shard: protocol writer closed")

// msgWriter frames protocol messages onto one half of a worker pipe.
// It is safe for concurrent use (the worker's heartbeat goroutine and
// result loop share one) and flushes after every message — a record
// sitting in a buffer is invisible to the peer's liveness tracking.
type msgWriter struct {
	mu     sync.Mutex
	w      *recio.Writer
	buf    bytes.Buffer
	closed bool
}

func newMsgWriter(w io.Writer) (*msgWriter, error) {
	rw, err := recio.NewWriter(w, Magic, Version)
	if err != nil {
		return nil, err
	}
	mw := &msgWriter{w: rw}
	// Push the header out immediately: the peer's reader blocks on it.
	if err := rw.Flush(); err != nil {
		return nil, err
	}
	return mw, nil
}

// send frames tag plus the gob encoding of v (nil v sends the bare tag).
func (m *msgWriter) send(tag byte, v any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errWriterClosed
	}
	m.buf.Reset()
	m.buf.WriteByte(tag)
	if v != nil {
		if err := gob.NewEncoder(&m.buf).Encode(v); err != nil {
			return err
		}
	}
	if err := m.w.Append(m.buf.Bytes()); err != nil {
		return err
	}
	return m.w.Flush()
}

// sendRaw frames tag plus a pre-encoded payload — the path result
// records take, so the campaign.ckpt bytes pass through untouched.
func (m *msgWriter) sendRaw(tag byte, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errWriterClosed
	}
	m.buf.Reset()
	m.buf.WriteByte(tag)
	m.buf.Write(payload)
	if err := m.w.Append(m.buf.Bytes()); err != nil {
		return err
	}
	return m.w.Flush()
}

// close seals the stream with the recio footer. Idempotent.
func (m *msgWriter) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.w.Close()
}

// msgReader iterates protocol records from one half of a worker pipe.
type msgReader struct {
	r *recio.Reader
}

func newMsgReader(rd io.Reader) (*msgReader, error) {
	r, _, err := recio.NewReader(rd, Magic)
	if err != nil {
		return nil, err
	}
	r.MaxRecord = maxWireRecord
	return &msgReader{r: r}, nil
}

// next returns the next record's tag and body. The body is valid only
// until the following call. A cleanly-ended or torn stream returns
// io.EOF — a severed pipe and a sealed stream are the same event to the
// peer: the conversation is over.
func (m *msgReader) next() (tag byte, body []byte, err error) {
	p, err := m.r.Next()
	if err != nil {
		return 0, nil, err
	}
	if len(p) < 1 {
		return 0, nil, fmt.Errorf("shard: empty protocol record")
	}
	return p[0], p[1:], nil
}

// decodeBody parses a gob message body.
func decodeBody(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}
