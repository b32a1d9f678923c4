package shard

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// FuzzShardMessage: the coordinator and worker read each other's pipes
// with newMsgReader → next → decodeBody, and a worker's stdout is
// untrusted bytes. Arbitrary streams must never panic the reader or the
// hello/assign/result decoders, and no record body may exceed the
// checkpoint record bound (the tag byte is the rest of maxWireRecord).
func FuzzShardMessage(f *testing.F) {
	var stream bytes.Buffer
	mw, err := newMsgWriter(&stream)
	if err != nil {
		f.Fatal(err)
	}
	opts := experiments.Options{Seed: 7, Quick: true}
	res := core.Result{ID: "T1", Title: "seed"}
	res.AddCheck("x", "a", "a", true)
	rec, err := experiments.EncodeCheckpointRecord(opts, res)
	if err != nil {
		f.Fatal(err)
	}
	for _, step := range []func() error{
		func() error {
			return mw.send(tagHello, helloMsg{Opts: opts, Deadline: time.Second, SweepWorkers: 2, AuditMode: "warn"})
		},
		func() error { return mw.send(tagAssign, assignMsg{Seq: 1, IDs: []string{"T1", "F9"}}) },
		func() error { return mw.send(tagStart, startMsg{Seq: 1, ID: "T1"}) },
		func() error { return mw.send(tagHeartbeat, nil) },
		func() error { return mw.sendRaw(tagResult, rec) },
		func() error { return mw.send(tagDone, doneMsg{Seq: 1}) },
		mw.close,
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	valid := stream.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte{})
	// Each genuine record (tag + body) seeds the framed path below.
	mr, err := newMsgReader(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	for {
		tag, body, err := mr.next()
		if err != nil {
			break
		}
		f.Add(append([]byte{tag}, body...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		readAll(t, data)
		// The checksummed framing keeps most mutations out of the
		// decoders, so also deliver the input as one well-framed record:
		// a tag byte and an arbitrary body.
		if len(data) == 0 || len(data) > experiments.MaxCheckpointRecord {
			return
		}
		var framed bytes.Buffer
		w, err := newMsgWriter(&framed)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.sendRaw(data[0], data[1:]); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		readAll(t, framed.Bytes())
	})
}

// readAll reads a protocol stream to its end, decoding every record
// body as each message type a peer may expect.
func readAll(t *testing.T, stream []byte) {
	t.Helper()
	mr, err := newMsgReader(bytes.NewReader(stream))
	if err != nil {
		return
	}
	for {
		_, body, err := mr.next()
		if err != nil {
			return
		}
		if len(body) > experiments.MaxCheckpointRecord {
			t.Fatalf("record body of %d bytes exceeds the %d-byte bound", len(body), experiments.MaxCheckpointRecord)
		}
		var h helloMsg
		decodeBody(body, &h)
		var a assignMsg
		decodeBody(body, &a)
		experiments.DecodeCheckpointRecord(body)
	}
}
