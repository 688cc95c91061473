package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"segidx/internal/page"
	"segidx/internal/store"
)

// Storage is counted where the program meets it. Durable stores reach the
// file system only through store.OS, which main replaces with countingFS
// before any index exists; the in-memory store of paper_sweep is wrapped
// in countingStore. Single-goroutine workloads therefore count bytes and
// fsyncs exactly.

// ioCounts is a snapshot of storage counters.
type ioCounts struct {
	walBytes, pageBytes, syncs int64
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{c.walBytes - o.walBytes, c.pageBytes - o.pageBytes, c.syncs - o.syncs}
}

func (c ioCounts) bytes() int64 { return c.walBytes + c.pageBytes }

// countingFS counts bytes written and fsyncs, splitting write-ahead-log
// files (".wal") from page and manifest files.
type countingFS struct {
	inner                      store.FS
	walBytes, pageBytes, syncs atomic.Int64
}

func (c *countingFS) counts() ioCounts {
	return ioCounts{c.walBytes.Load(), c.pageBytes.Load(), c.syncs.Load()}
}

func (c *countingFS) OpenFile(name string) (store.File, error) {
	f, err := c.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	n := &c.pageBytes
	if strings.HasSuffix(name, ".wal") {
		n = &c.walBytes
	}
	return &countingFile{File: f, bytes: n, syncs: &c.syncs}, nil
}

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

type countingFile struct {
	store.File
	bytes, syncs *atomic.Int64
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// countingStore wraps the in-memory page store, counting bytes written
// and the bytes of the pages it holds.
type countingStore struct {
	store.Store
	mu      sync.Mutex
	sizes   map[page.ID]int
	held    int64
	written int64
}

func newCountingStore() *countingStore {
	return &countingStore{Store: store.NewMemStore(), sizes: make(map[page.ID]int)}
}

func (s *countingStore) Allocate(size int) (page.ID, error) {
	id, err := s.Store.Allocate(size)
	if err == nil {
		s.mu.Lock()
		s.sizes[id] = size
		s.held += int64(size)
		s.mu.Unlock()
	}
	return id, err
}

func (s *countingStore) Write(id page.ID, data []byte) error {
	err := s.Store.Write(id, data)
	if err == nil {
		s.mu.Lock()
		s.written += int64(len(data))
		s.mu.Unlock()
	}
	return err
}

func (s *countingStore) Free(id page.ID) error {
	err := s.Store.Free(id)
	if err == nil {
		s.mu.Lock()
		s.held -= int64(s.sizes[id])
		delete(s.sizes, id)
		s.mu.Unlock()
	}
	return err
}

func (s *countingStore) counts() (held, written int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held, s.written
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
