package main

import (
	"io/fs"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// countFS is a vfs.FS decorator that counts every operation, the bytes
// written and the durability calls (File.Sync and SyncDir), and sums the
// time spent inside the wrapped filesystem.
//
// Sync and SyncDir are counted but not passed on: the workloads keep
// their data under the checkout, and absorbing the flushes gives it the
// behaviour of tmpfs, where fsync is a no-op. The shared disk's flush
// latency would otherwise set the numbers; the exact sync counts are
// reported instead.
type countFS struct {
	inner      vfs.FS
	ops        atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64
	busyNs     atomic.Int64
}

func newCountFS(inner vfs.FS) *countFS { return &countFS{inner: inner} }

// fsCounts is a snapshot of a countFS's counters.
type fsCounts struct {
	ops, writeBytes, syncs int64
	busy                   time.Duration
}

func (c *countFS) snapshot() fsCounts {
	return fsCounts{
		ops:        c.ops.Load(),
		writeBytes: c.writeBytes.Load(),
		syncs:      c.syncs.Load(),
		busy:       time.Duration(c.busyNs.Load()),
	}
}

// sub returns the counts accumulated between an earlier snapshot and c.
func (c fsCounts) sub(earlier fsCounts) fsCounts {
	return fsCounts{
		ops:        c.ops - earlier.ops,
		writeBytes: c.writeBytes - earlier.writeBytes,
		syncs:      c.syncs - earlier.syncs,
		busy:       c.busy - earlier.busy,
	}
}

// timed counts one operation and charges its duration to busy time.
func (c *countFS) timed(start time.Time) {
	c.ops.Add(1)
	c.busyNs.Add(int64(time.Since(start)))
}

func (c *countFS) Create(name string) (vfs.File, error) {
	defer c.timed(time.Now())
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Open(name string) (vfs.File, error) {
	defer c.timed(time.Now())
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	defer c.timed(time.Now())
	return c.inner.Rename(oldpath, newpath)
}

func (c *countFS) Remove(name string) error {
	defer c.timed(time.Now())
	return c.inner.Remove(name)
}

func (c *countFS) RemoveAll(path string) error {
	defer c.timed(time.Now())
	return c.inner.RemoveAll(path)
}

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error {
	defer c.timed(time.Now())
	return c.inner.MkdirAll(path, perm)
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer c.timed(time.Now())
	return c.inner.ReadDir(name)
}

func (c *countFS) SyncDir(string) error {
	c.ops.Add(1)
	c.syncs.Add(1)
	return nil
}

// countFile counts the operations on one open file.
type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Read(p []byte) (int, error) {
	defer f.fs.timed(time.Now())
	return f.File.Read(p)
}

func (f *countFile) Write(p []byte) (int, error) {
	defer f.fs.timed(time.Now())
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Close() error {
	defer f.fs.timed(time.Now())
	return f.File.Close()
}

func (f *countFile) Sync() error {
	f.fs.ops.Add(1)
	f.fs.syncs.Add(1)
	return nil
}

// recordFS stores the filesystem counts of a timed phase, and their
// per-job forms when jobs > 0.
func recordFS(res *roundResult, c fsCounts, jobs int) {
	res.Layers["vfs.ops"] = float64(c.ops)
	res.Layers["vfs.write_bytes"] = float64(c.writeBytes)
	res.Layers["vfs.syncs"] = float64(c.syncs)
	res.Layers["vfs.busy_s"] = c.busy.Seconds()
	if jobs > 0 {
		res.Layers["vfs.ops_per_job"] = float64(c.ops) / float64(jobs)
		res.Layers["vfs.write_bytes_per_job"] = float64(c.writeBytes) / float64(jobs)
		res.Layers["vfs.syncs_per_job"] = float64(c.syncs) / float64(jobs)
	}
}
