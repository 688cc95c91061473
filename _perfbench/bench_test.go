package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"segidx"
	"segidx/internal/store"
)

func TestQuantileAndRate(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.99); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// 100 completions per 100 ms part, one part empty: the median part
	// still reads 1000/s.
	var ends []int64
	for part := int64(0); part < 10; part++ {
		if part == 3 {
			continue
		}
		for i := int64(0); i < 100; i++ {
			ends = append(ends, part*100e6+i*1e6)
		}
	}
	if got := rate(ends, time.Second); math.Abs(got-1000) > 1e-9 {
		t.Errorf("rate = %v, want 1000", got)
	}
}

// TestMirrorMatchesIndex pins the brute-force mirror to the index on a
// small dataset, so a check failure in a run points at the program.
func TestMirrorMatchesIndex(t *testing.T) {
	idx, err := segidx.NewSRTree()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	r, mir := newRNG(1, 1), newMirror()
	recs := make([]segidx.Rect, 2000)
	for i := range recs {
		recs[i] = genI3(r)
		if err := idx.Insert(recs[i], segidx.RecordID(i+1)); err != nil {
			t.Fatal(err)
		}
		mir.insert(segidx.RecordID(i+1), recs[i])
	}
	if err := paperCheck(idx, mir, newRNG(1, 4), recs); err != nil {
		t.Fatal(err)
	}
	mir.remove(1)
	if got, err := idx.Search(recs[0]); err != nil {
		t.Fatal(err)
	} else if sameIDs("search", recs[0], got, mir.search(recs[0])) == nil {
		t.Error("mirror missing a record still compared equal")
	}
}

func TestCountingFS(t *testing.T) {
	cfs := &countingFS{inner: store.OS}
	f, err := cfs.OpenFile(filepath.Join(t.TempDir(), "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cfs.counts(); got != (ioCounts{walBytes: 100, syncs: 1}) {
		t.Errorf("counts = %+v", got)
	}
}

// TestWorkloads runs every workload end to end, traced, with a short
// window: the answer and durability checks must pass, every end-to-end
// metric must be positive, and spans must be recorded.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's full input")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, name := range names {
		cfs := &countingFS{inner: store.OS}
		store.OS = cfs
		res, err := workloads[name](&config{
			seed: 3, window: 2 * time.Second, trace: true,
			dir: t.TempDir(), fs: cfs, started: time.Now(),
		})
		store.OS = cfs.inner
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", name, res.attempted, res.failed)
		}
		for m := range endToEndUnits {
			if v := res.endToEnd[m]; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v)
			}
		}
		if len(res.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
}
