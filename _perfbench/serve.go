package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"segidx"
	"segidx/internal/server"
)

// serve_mixed: segidxd's request path. internal/server runs on a loopback
// listener over a 2-shard durable SR-Tree forest with group commit every
// flushEvery mutations, the daemon's default result-cache size, and a
// buffer-pool budget of half the preloaded index's page bytes. Two
// closed-loop clients send a read-mostly mix. No sidecar.
const (
	serveN       = 20000
	serveShards  = 2
	serveClients = 2
	serveCache   = 4096 // segidxd's -cache default
	serveWarmup  = 10   // untimed rounds per client before the window
	serveHot     = 8    // repeated queries (half searches, half stabs)
)

// One client round, in a per-round shuffled order. The QAR sweep is the
// paper's (Section 5); the proportions of the round are assumptions
// (README.md, "Where the proportions come from").
const (
	serveSearches = 26 // two per QAR
	serveStabs    = 26
	serveCounts   = 8
	serveSlices   = 1
	serveHotReads = 32
	serveInserts  = 2
	serveDeletes  = 2
	serveSnaps    = 4 // in-process stabs against a snapshot pinned at round start
)

// clientHeader tells the handler timer which client sent a timed request.
const clientHeader = "X-Perfbench-Client"

// handlerTimer times the server's handler from outside it and hands the
// interval to the client that sent the request. Each client is a closed
// loop with one request in flight, so a one-slot channel per client is
// enough.
type handlerTimer struct {
	h    http.Handler
	done [serveClients]chan [2]time.Time
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	end := time.Now()
	if c, err := strconv.Atoi(r.Header.Get(clientHeader)); err == nil && c >= 0 && c < serveClients {
		select {
		case t.done[c] <- [2]time.Time{start, end}:
		default:
		}
	}
}

// daemon is the served index and its HTTP server.
type daemon struct {
	path  string
	idx   *segidx.Index
	srv   *server.Server
	hs    *http.Server
	base  string
	timer *handlerTimer
	errc  chan error
}

func startDaemon(path string, budget int, trace bool) (*daemon, error) {
	idx, err := segidx.OpenDurable(path, segidx.WithPoolBytes(budget))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, idx.Close())
	}
	d := &daemon{
		path: path,
		idx:  idx,
		srv:  server.New(idx, server.Config{CacheEntries: serveCache, FlushEvery: flushEvery}),
		base: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	var h http.Handler = d.srv.Handler()
	if trace {
		d.timer = &handlerTimer{h: h}
		for i := range d.timer.done {
			d.timer.done[i] = make(chan [2]time.Time, 1)
		}
		h = d.timer
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.errc <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server down, flushes and closes the index, and waits
// for the serving goroutine to end. It drops the daemon's references to
// the index, so a stopped daemon holds no index memory; a second stop does
// nothing.
func (d *daemon) stop() error {
	if d.idx == nil {
		return nil
	}
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.srv.Close(), d.idx.Close())
	d.idx, d.srv, d.hs = nil, nil, nil
	return err
}

// preload builds the durable forest by per-record Insert with a Flush
// every flushEvery records, and closes it. It returns the flush times (µs).
func preload(path string, recs []segidx.Rect) ([]float64, error) {
	idx, err := segidx.NewSRTree(segidx.WithDurableFile(path), segidx.WithShards(serveShards))
	if err != nil {
		return nil, err
	}
	var flushes []float64
	for i, r := range recs {
		if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
			return nil, errors.Join(err, idx.Close())
		}
		if (i+1)%flushEvery == 0 {
			start := time.Now()
			if err := idx.Flush(); err != nil {
				return nil, errors.Join(err, idx.Close())
			}
			flushes = append(flushes, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return flushes, idx.Close()
}

// pageFileBytes sums the shard page files of a forest at path (not its
// write-ahead logs or manifest).
func pageFileBytes(path string) (int64, error) {
	var n int64
	for i := 0; i < serveShards; i++ {
		info, err := os.Stat(fmt.Sprintf("%s.shard%d", path, i))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func serveMixed(cfg *config) (*result, error) {
	// Set-up: setupReps preloads and daemon starts, each of its own
	// dataset drawn from the seed. Per-set-up figures are averaged over
	// them; the window runs on the last.
	var (
		d                     *daemon
		recs                  []segidx.Rect
		setups, nodes, writes []float64
		flushes               []float64
		budget                int
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Dir(d.path)); err != nil {
				return nil, err
			}
		}
		data := newRNG(cfg.seed, 100+uint64(rep))
		recs = make([]segidx.Rect, serveN)
		for i := range recs {
			recs[i] = genI4(data)
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("rep%d", rep), "index.db")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		io0 := cfg.fs.counts()
		fl, err := preload(path, recs)
		if err != nil {
			return nil, err
		}
		written := cfg.fs.counts().sub(io0)
		pages, err := pageFileBytes(path)
		if err != nil {
			return nil, err
		}
		budget = int(pages / 2)
		if d, err = startDaemon(path, budget, cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		flushes = append(flushes, fl...)
		writes = append(writes, float64(written.bytes())/(serveN*recordBytes))
		n, err := nodesPerSearch(d.idx, newRNG(cfg.seed, 200+uint64(rep)), domHi)
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		nodes = append(nodes, n)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve_mixed pool budget %d bytes (half the page files)\n", budget)
	noteSetups(setups, nodes)
	m := map[string]float64{
		"setup_s":                   median(setups),
		"nodes_per_search":          mean(nodes),
		"write_bytes_per_user_byte": mean(writes),
	}
	layer := map[string]float64{"store.flush_p50_us": p50(flushes)}
	res, err := serveWindow(cfg, d, recs, m, layer)
	if err != nil {
		err = errors.Join(err, d.stop())
	}
	return res, err
}

// serveWindow runs the warm-up and the timed window, then the answer and
// durability checks. It stops the daemon for the durability check.
func serveWindow(cfg *config, d *daemon, recs []segidx.Rect, m, layer map[string]float64) (*result, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	ids := new(atomic.Int64)
	clients := make([]*client, serveClients)
	hot := hotSet(newRNG(cfg.seed, 5), recs)
	for c := range clients {
		cl := &client{
			id: c, hc: hc, d: d, recs: recs, hot: hot,
			q:      newRNG(cfg.seed, 10+uint64(c)),
			nextID: serveN + 1 + uint64(c),
		}
		for id := 1 + c; id <= serveN; id += serveClients {
			cl.fifo = append(cl.fifo, loggedWrite{true, segidx.RecordID(id), recs[id-1]})
		}
		if cfg.trace {
			cl.w.tr = newTracer(cfg.started, ids)
		}
		clients[c] = cl
	}
	var peak atomic.Uint64
	runClients := func(rounds int, deadline time.Time) error {
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds || time.Now().Before(deadline); r++ {
					if err := cl.round(&peak, cfg.trace); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := runClients(serveWarmup, time.Time{}); err != nil {
		return nil, err
	}
	peak.Store(0)
	var warm recorder
	for _, cl := range clients {
		warm.merge(&cl.w.rec)
		cl.w.rec = recorder{}
	}

	c0, err := cacheCounts(hc, d.base)
	if err != nil {
		return nil, err
	}
	e0, io0 := engineSnap(d.idx), cfg.fs.counts()
	open := time.Now()
	for _, cl := range clients {
		cl.w.open = open
	}
	if err := runClients(0, open.Add(cfg.window)); err != nil {
		return nil, err
	}
	e1, io1 := engineSnap(d.idx), cfg.fs.counts()
	c1, err := cacheCounts(hc, d.base)
	if err != nil {
		return nil, err
	}

	rec := &recorder{}
	var spans []span
	var transport, handler []float64
	for _, cl := range clients {
		rec.merge(&cl.w.rec)
		spans = append(spans, cl.w.tr.spansOrNil()...)
		transport = append(transport, cl.transport...)
		handler = append(handler, cl.handler...)
	}
	timedEndToEnd(m, rec, cfg.window)
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	reads := rec.reads()
	engineReads := int(misses) + rec.count(kSnap)
	readSide(layer, e0, e1, reads, engineReads, rec.ops)
	writeSide(layer, e0, e1, io0, io1, rec.writes())
	layer["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	layer["server.transport_p50_us"] = p50(transport)
	layer["server.handler_p50_us"] = p50(handler)
	layer["buffer.retained_versions_peak"] = float64(peak.Load())
	layer["bench.traced_read_ops_s"] = m["read_ops_s"]

	res := &result{
		endToEnd:  m,
		perLayer:  layer,
		attempted: rec.ops + warm.ops,
		failed:    rec.fail + warm.fail,
		spans:     spans,
	}

	mir := newMirror()
	for i, r := range recs {
		mir.insert(segidx.RecordID(i+1), r)
	}
	for _, cl := range clients {
		for _, lw := range cl.log {
			if lw.insert {
				mir.insert(lw.id, lw.rect)
			} else {
				mir.remove(lw.id)
			}
		}
	}
	if err := serveCheck(hc, d.base, mir, hot, newRNG(cfg.seed, 4), recs); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}

	// Graceful close, then reopen: every acknowledged write must survive.
	m["heap_mb"] = liveHeapMB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	for _, cl := range clients {
		cl.d = nil
	}
	m["heap_mb"] -= liveHeapMB()
	disk, err := dirBytes(filepath.Dir(d.path))
	if err != nil {
		return nil, err
	}
	m["disk_bytes_per_user_byte"] = float64(disk) / float64(len(mir.recs)*recordBytes)
	if err := reopenCheck(d.path, mir, newRNG(cfg.seed, 6), recs); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}
	return res, nil
}

// loggedWrite is one acknowledged mutation, replayed into the mirror
// after the window.
type loggedWrite struct {
	insert bool
	id     segidx.RecordID
	rect   segidx.Rect
}

// client is one closed-loop HTTP client. It inserts fresh IDs from its own
// residue class and deletes, oldest first, records of its own class, so
// the two clients never touch the same record and each knows exactly which
// writes must be acknowledged.
type client struct {
	id     int
	hc     *http.Client
	d      *daemon
	recs   []segidx.Rect
	hot    []hotQuery
	q      *rng
	w      worker
	nextID uint64
	fifo   []loggedWrite // live records of this client, oldest first
	log    []loggedWrite

	transport, handler []float64 // traced: round trip less handler, handler (µs)
}

// hotQuery is one repeated query: its request and the rectangle the
// mirror answers it with (a point rectangle for a stab).
type hotQuery struct {
	path string
	body []byte
	rect segidx.Rect
}

func hotSet(q *rng, recs []segidx.Rect) []hotQuery {
	out := make([]hotQuery, serveHot)
	for i := range out {
		if i%2 == 0 {
			r := qarQuery(q, qars[q.intn(len(qars))], domLo, domHi)
			out[i] = hotQuery{"/search", searchBody(r), r}
		} else {
			x, y := stabOn(q, recs)
			out[i] = hotQuery{"/stab", stabBody(x, y), segidx.Point(x, y)}
		}
	}
	return out
}

type rectJSON struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

func toJSON(r segidx.Rect) rectJSON { return rectJSON{r.Min, r.Max} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of floats and ints are marshalled
	}
	return b
}

func searchBody(r segidx.Rect) []byte {
	return mustJSON(struct {
		Rect rectJSON `json:"rect"`
	}{toJSON(r)})
}

func stabBody(x, y float64) []byte {
	return mustJSON(struct {
		Point []float64 `json:"point"`
	}{[]float64{x, y}})
}

// post sends one request and returns the body of a 200 response.
func post(hc *http.Client, url string, body []byte, client int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if client >= 0 {
		req.Header.Set(clientHeader, strconv.Itoa(client))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// request times one HTTP request as an operation of kind k. When tracing,
// the client's span gets the handler's interval as a child span.
func (c *client) request(k kind, path string, body []byte, check func([]byte) error) error {
	hdr := -1
	if c.d.timer != nil {
		hdr = c.id
	}
	start := time.Now()
	out, err := post(c.hc, c.d.base+path, body, hdr)
	end := time.Now()
	c.w.rec.add(k, start, end, c.w.open)
	if c.d.timer != nil {
		parent := c.w.tr.add("server.request"+path, 0, start, end)
		if err == nil {
			// The handler ran for this response and reports once its
			// ServeHTTP returns; a failed request ends the client's run,
			// so no interval is left behind for the next request.
			hs := <-c.d.timer.done[c.id]
			c.w.tr.add("server.handler"+path, parent, hs[0], hs[1])
			h := hs[1].Sub(hs[0])
			c.handler = append(c.handler, float64(h.Nanoseconds())/1e3)
			c.transport = append(c.transport, float64((end.Sub(start)-h).Nanoseconds())/1e3)
		}
	}
	if err == nil && check != nil {
		err = check(out)
	}
	if err != nil {
		c.w.rec.fail++
	}
	return err
}

// applied checks a mutation response's applied count.
func applied(want int) func([]byte) error {
	return func(b []byte) error {
		var r struct {
			Applied int `json:"applied"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if r.Applied != want {
			return fmt.Errorf("mutation applied %d, want %d", r.Applied, want)
		}
		return nil
	}
}

// round runs one client round in a shuffled order. A snapshot pinned at
// the start is held across the round's writes and read from in-process,
// as an embedded reader beside the daemon would.
func (c *client) round(peak *atomic.Uint64, trace bool) error {
	ops := make([]kind, 0, 48)
	add := func(k kind, n int) {
		for i := 0; i < n; i++ {
			ops = append(ops, k)
		}
	}
	add(kSearch, serveSearches)
	add(kStab, serveStabs)
	add(kOther, serveCounts+serveHotReads)
	add(kSlice, serveSlices)
	add(kInsert, serveInserts)
	add(kDelete, serveDeletes)
	add(kSnap, serveSnaps)
	for i := len(ops) - 1; i > 0; i-- {
		j := c.q.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	view := c.d.idx.Snapshot()
	defer view.Release()
	qi, counts := 0, 0
	for _, k := range ops {
		var err error
		switch k {
		case kSearch:
			err = c.request(k, "/search", searchBody(qarQuery(c.q, qars[qi%len(qars)], domLo, domHi)), nil)
			qi++
		case kStab:
			x, y := stabOn(c.q, c.recs)
			err = c.request(k, "/stab", stabBody(x, y), nil)
		case kOther:
			if counts < serveCounts {
				counts++
				err = c.request(k, "/count", searchBody(qarQuery(c.q, qars[c.q.intn(len(qars))], domLo, domHi)), nil)
			} else {
				h := c.hot[c.q.intn(len(c.hot))]
				err = c.request(k, h.path, h.body, nil)
			}
		case kSlice:
			err = c.request(k, "/search", searchBody(slice(c.q.uniform(domLo, domHi))), nil)
		case kSnap:
			x, y := stabOn(c.q, c.recs)
			p := segidx.Point(x, y)
			err = c.w.do(kSnap, "core.snapshot_stab", func() error { _, err := view.SearchContaining(p); return err })
		case kInsert:
			id := segidx.RecordID(c.nextID)
			c.nextID += serveClients
			r := genI4(c.q)
			body := mustJSON(struct {
				ID   uint64   `json:"id"`
				Rect rectJSON `json:"rect"`
			}{uint64(id), toJSON(r)})
			if err = c.request(k, "/insert", body, applied(1)); err == nil {
				c.fifo = append(c.fifo, loggedWrite{true, id, r})
				c.log = append(c.log, loggedWrite{true, id, r})
			}
		case kDelete:
			old := c.fifo[0]
			body := mustJSON(struct {
				ID   uint64   `json:"id"`
				Hint rectJSON `json:"hint"`
			}{uint64(old.id), toJSON(old.rect)})
			if err = c.request(k, "/delete", body, applied(1)); err == nil {
				c.fifo = c.fifo[1:]
				c.log = append(c.log, loggedWrite{insert: false, id: old.id})
			}
		}
		if err != nil {
			return err
		}
	}
	if trace {
		for {
			cur, r := peak.Load(), poolStats(c.d.idx).Retained
			if r <= cur || peak.CompareAndSwap(cur, r) {
				break
			}
		}
	}
	return nil
}

// cacheCounts reads the result-cache counters from /metrics.
func cacheCounts(hc *http.Client, base string) (server.CacheStats, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return server.CacheStats{}, err
	}
	defer resp.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return server.CacheStats{}, err
	}
	return m.Cache, nil
}

type wireResults struct {
	Results [][]struct {
		ID uint64 `json:"id"`
	} `json:"results"`
	Counts []int `json:"counts"`
}

// wireIDs decodes one /search or /stab answer into an entry list.
func wireIDs(b []byte) ([]segidx.Entry, error) {
	var r wireResults
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != 1 {
		return nil, fmt.Errorf("%d result lists for one query", len(r.Results))
	}
	out := make([]segidx.Entry, len(r.Results[0]))
	for i, e := range r.Results[0] {
		out[i].ID = segidx.RecordID(e.ID)
	}
	return out, nil
}

// serveCheck compares sampled answers over HTTP with the mirror, and asks
// every hot query twice: the repeat, usually a cache hit, must equal the
// fresh answer and the mirror.
func serveCheck(hc *http.Client, base string, mir *mirror, hot []hotQuery, q *rng, recs []segidx.Rect) error {
	ask := func(path string, body []byte, want []uint64) error {
		out, err := post(hc, base+path, body, -1)
		if err != nil {
			return err
		}
		got, err := wireIDs(out)
		if err != nil {
			return err
		}
		return sameIDs(path+" "+string(body), segidx.Rect{}, got, want)
	}
	for i := 0; i < 60; i++ {
		qr := qarQuery(q, qars[i%len(qars)], domLo, domHi)
		if err := ask("/search", searchBody(qr), mir.search(qr)); err != nil {
			return err
		}
		x, y := stabOn(q, recs)
		if err := ask("/stab", stabBody(x, y), mir.stab([]float64{x, y})); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		qr := qarQuery(q, qars[i%len(qars)], domLo, domHi)
		out, err := post(hc, base+"/count", searchBody(qr), -1)
		if err != nil {
			return err
		}
		var r wireResults
		if err := json.Unmarshal(out, &r); err != nil {
			return err
		}
		if want := len(mir.search(qr)); len(r.Counts) != 1 || r.Counts[0] != want {
			return fmt.Errorf("/count %v = %v, mirror %d", qr, r.Counts, want)
		}
	}
	for _, h := range hot {
		want := mir.search(h.rect)
		for rep := 0; rep < 2; rep++ {
			if err := ask(h.path, h.body, want); err != nil {
				return fmt.Errorf("hot query, ask %d: %w", rep+1, err)
			}
		}
	}
	return nil
}

// reopenCheck reopens the closed forest and compares its length and a
// sample of answers with the mirror.
func reopenCheck(path string, mir *mirror, q *rng, recs []segidx.Rect) error {
	idx, err := segidx.OpenDurable(path)
	if err != nil {
		return err
	}
	check := func() error {
		if idx.Len() != len(mir.recs) {
			return fmt.Errorf("reopened forest holds %d records, mirror %d", idx.Len(), len(mir.recs))
		}
		for i := 0; i < 40; i++ {
			qr := qarQuery(q, qars[i%len(qars)], domLo, domHi)
			got, err := idx.Search(qr)
			if err != nil {
				return err
			}
			if err := sameIDs("reopened search", qr, got, mir.search(qr)); err != nil {
				return err
			}
			x, y := stabOn(q, recs)
			if got, err = idx.Stab(x, y); err != nil {
				return err
			}
			if err := sameIDs("reopened stab", segidx.Point(x, y), got, mir.stab([]float64{x, y})); err != nil {
				return err
			}
		}
		return nil
	}
	return errors.Join(check(), idx.Close())
}
