package main

import (
	"testing"

	"repro/internal/vfs"
)

// An atomic file replacement is create, write, sync, close, rename and
// a directory sync: six operations, two of them syncs, and the counts
// are the same every time.
func TestCountFSCountsExactly(t *testing.T) {
	for run := 0; run < 2; run++ {
		c := newCountFS(vfs.NewMemFS())
		if err := c.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		before := c.snapshot()
		if err := vfs.WriteFileAtomic(c, "/d/job.json", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		got := c.snapshot().sub(before)
		if got.ops != 6 || got.syncs != 2 || got.writeBytes != 5 {
			t.Errorf("run %d: ops %d syncs %d bytes %d, want 6 2 5", run, got.ops, got.syncs, got.writeBytes)
		}
		data, err := vfs.ReadFile(c, "/d/job.json")
		if err != nil || string(data) != "hello" {
			t.Errorf("read back %q, %v", data, err)
		}
	}
}
