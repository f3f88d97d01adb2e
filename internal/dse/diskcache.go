package dse

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/sim"
)

// On-disk result-cache format: a line-oriented JSON file. The first line
// is a header naming the format and version (encoding/json); every
// following line is one {hash, key, result} entry, written and read by
// the store line codec (storeline.go) in one canonical form — the bytes
// encoding/json gives for diskEntry. The reader admits that form only:
// a line that is valid JSON in any other spelling (a hand edit, say)
// is corrupt. Line-orientation is what makes the store
// corruption-tolerant: a process killed mid-flush leaves at most one
// truncated trailing line, which LoadFile drops while keeping every
// complete entry before it; a corrupt line, however long, ends the load
// the same way. Writes go through a temp file + rename, so a reader
// never observes a half-written file at the canonical path.
//
// The version covers both the entry schema (sim.Result's JSON shape) and
// the canonical Key format the hashes were computed under; the model
// fingerprint covers the simulation and energy models themselves. A
// mismatch of either means the file is ignored wholesale and rewritten
// on the next flush — never silently reinterpreted.
const (
	diskFormatName = "dse-result-cache"
	// Version 2: sim.Result grew the workload axis (per-phase
	// cycle/energy slices replacing the fixed Sign/Verify fields), so v1
	// stores are rejected wholesale instead of silently decoded into
	// empty phase lists.
	diskFormatVersion = 2

	// DiskCacheFile is the file name used inside a cache directory.
	DiskCacheFile = "results.v2.jsonl"
)

type diskHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Model fingerprints the simulation + energy models the results were
	// computed under, so a store written before a calibration or model
	// change is discarded instead of silently serving stale numbers.
	Model string `json:"model"`
}

// modelFingerprint hashes probe simulations spanning every model path a
// sweep can persist (software core, ISA extensions, cache + prefetcher,
// ideal cache, Monte at a non-default width with and without double
// buffering and gating, Billie at a non-default digit with gating, and
// every non-default workload — keygen, ecdh, handshake — on both curve
// families): any model or
// calibration change that alters results anywhere changes the
// fingerprint and invalidates on-disk caches. Computed once per process.
//
// The probe set is load-bearing: adding a probe changes the fingerprint
// and discards every existing store, so new axes must NOT add probes
// when their default reproduces pre-axis results bit-for-bit (the
// line-size axis rides the cache probes this way). A change to a
// non-default-only model path (e.g. recalibrating lineMissScale) is
// invisible to these probes and needs a diskFormatVersion bump instead.
var modelFingerprint = sync.OnceValue(func() string {
	probes := []struct {
		arch  sim.Arch
		curve string
		opt   func(*sim.Options)
	}{
		{sim.Baseline, "P-192", func(o *sim.Options) {}},
		{sim.ISAExt, "B-163", func(o *sim.Options) {}},
		{sim.ISAExtCache, "P-256", func(o *sim.Options) { o.CacheBytes = 1 << 10; o.Prefetch = true }},
		{sim.ISAExtCache, "P-192", func(o *sim.Options) { o.IdealCache = true }},
		{sim.WithMonte, "P-192", func(o *sim.Options) { o.MonteWidth = 8 }},
		{sim.WithMonte, "P-256", func(o *sim.Options) { o.DoubleBuffer = false; o.GateAccelIdle = true }},
		{sim.WithBillie, "B-163", func(o *sim.Options) { o.BillieDigit = 1; o.GateAccelIdle = true }},
		{sim.WithMonte, "P-192", func(o *sim.Options) { o.Workload = sim.WorkloadHandshake }},
		{sim.WithBillie, "B-163", func(o *sim.Options) { o.Workload = sim.WorkloadECDH }},
		{sim.ISAExt, "P-256", func(o *sim.Options) { o.Workload = sim.WorkloadKeyGen }},
		{sim.Baseline, "B-233", func(o *sim.Options) { o.Workload = sim.WorkloadKeyGen }},
		{sim.ISAExt, "P-384", func(o *sim.Options) { o.Workload = sim.WorkloadECDH }},
		{sim.WithBillie, "B-283", func(o *sim.Options) { o.Workload = sim.WorkloadHandshake }},
	}
	curves := make([]string, len(probes))
	for i, p := range probes {
		curves[i] = p.curve
	}
	sim.ProfileCurves(curves, runtime.GOMAXPROCS(0))
	h := sha256.New()
	fmt.Fprintf(h, "keyfmt:%s;", Config{Arch: sim.WithMonte, Curve: "P-192"}.Key())
	fmt.Fprintf(h, "keyfmt-wl:%s;", Config{Arch: sim.WithMonte, Curve: "P-192",
		Opt: sim.Options{Workload: sim.WorkloadHandshake}}.Key())
	for _, p := range probes {
		o := sim.DefaultOptions()
		p.opt(&o)
		r, err := sim.Run(p.arch, p.curve, o)
		if err != nil {
			fmt.Fprintf(h, "err:%v;", err)
			continue
		}
		fmt.Fprintf(h, "%s|%s|%s:", p.arch, p.curve, r.Workload)
		for _, ph := range r.Phases {
			fmt.Fprintf(h, "%s=%d,", ph.Name, ph.Cycles)
		}
		fmt.Fprintf(h, "%.17g,%.17g;", r.TotalEnergy(), r.Power.StaticW)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// diskEntry is one store line: the schema appendStoreLine writes and
// parseStoreLine reads (storeline.go), and, through its json tags, the
// encoding/json form that codec reproduces byte for byte.
type diskEntry struct {
	Hash string `json:"hash"`
	// Key is the human-readable canonical configuration, stored for
	// auditability (the hash alone is opaque); LoadFile ignores it and
	// checks the hash against the result's own configuration instead.
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// loadEntry is the decode-side view of diskEntry: parseStoreLine checks
// the key's form but does not keep it, so the warm-load path never
// copies the audit string it would immediately discard.
type loadEntry struct {
	Hash   string
	Result sim.Result
}

// consistent reports whether a decoded entry is one SaveFile could have
// written: a priced result filed under its own configuration's hash.
func (e *loadEntry) consistent() bool {
	if len(e.Result.Phases) == 0 {
		return false
	}
	cfg := Config{Arch: e.Result.Arch, Curve: e.Result.Curve, Opt: e.Result.Opt}
	return cfg.Hash() == e.Hash
}

// scanBufPool recycles LoadFile's scanner buffer across loads: the
// store is read once per sweep, and a fresh 64 KB allocation per call
// was the single largest allocation on the decode-bound warm-disk path
// (BenchmarkStoreLoad).
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// entryBufPool recycles LoadFile's decoded-entry slice, which holds the
// lines while the model fingerprint is still being computed.
var entryBufPool = sync.Pool{New: func() any { return new([]loadEntry) }}

// DiskCachePath returns the store path inside a cache directory.
func DiskCachePath(dir string) string { return filepath.Join(dir, DiskCacheFile) }

// LoadFile merges previously persisted results from path into the cache
// and returns how many entries were actually added (hashes already in
// memory are left untouched and not counted). A missing file, a foreign,
// version-mismatched or model-mismatched header, and a truncated or
// corrupted tail are all non-fatal: the valid prefix (possibly empty) is
// loaded and the rest ignored, so a damaged or stale store costs
// re-simulation, never a failed sweep. A line is corrupt unless it is in
// the canonical form SaveFile writes (parseStoreLine), its hash is the
// hash of its own result's configuration and the result priced at least
// one phase: a hollow or mismatched entry would otherwise be served as a
// hit and never repaired. A line too long to scan is corrupt too; only a
// failed read is an error.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("dse: open result cache: %w", err)
	}
	defer f.Close()
	return c.load(f)
}

// load is LoadFile over an open store.
func (c *Cache) load(r io.Reader) (int, error) {
	buf := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(buf)
	sc := bufio.NewScanner(r)
	sc.Buffer(*buf, maxStoreLine)
	sc.Split(scanStoreLines)
	if !sc.Scan() {
		return 0, readErr(sc.Err()) // empty file, or no header to trust
	}
	var hdr diskHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil ||
		hdr.Format != diskFormatName || hdr.Version != diskFormatVersion {
		return 0, nil // foreign format or stale schema: start fresh
	}

	// The model fingerprint profiles and prices its probes; it runs
	// while the lines decode, and is compared before any entry is
	// merged.
	model := make(chan string, 1)
	go func() { model <- modelFingerprint() }()
	ebuf := entryBufPool.Get().(*[]loadEntry)
	entries := (*ebuf)[:0]
	defer func() {
		clear(entries) // drop the results; the cache holds its own copies
		*ebuf = entries[:0]
		entryBufPool.Put(ebuf)
	}()
	strs := make(map[string]string)
	for sc.Scan() {
		var e loadEntry
		if _, ok := parseStoreLine(sc.Bytes(), &e, strs); !ok || !e.consistent() {
			break // truncated/corrupted tail: keep what parsed so far
		}
		entries = append(entries, e)
	}
	if <-model != hdr.Model {
		return 0, nil // stale model: start fresh
	}

	n := 0
	c.mu.Lock()
	if len(c.m) == 0 {
		// Size a fresh cache for the store up front instead of growing
		// it through every doubling.
		c.m = make(map[string]cacheEntry, len(entries))
	}
	for _, le := range entries {
		if _, ok := c.m[le.Hash]; !ok {
			c.m[le.Hash] = cacheEntry{res: le.Result}
			n++
		}
	}
	c.mu.Unlock()
	// A real read failure is not corruption: the on-disk suffix may be
	// intact, and silently succeeding here would let the post-sweep
	// flush rewrite the store without it. Surface it instead. (After a
	// corrupt line Scan had succeeded, so Err is nil.)
	return n, readErr(sc.Err())
}

// scanStoreLines splits the store at each newline. Unlike
// bufio.ScanLines it keeps a trailing \r on the line, so a CRLF line is
// not canonical and fails the parse.
func scanStoreLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// maxStoreLine caps the length of a store line; an entry line is about
// 1 KB, so a longer line is junk.
const maxStoreLine = 4 * 1024 * 1024

// readErr reports a scan error as a failed read, except for a line
// longer than maxStoreLine, which is a corrupt line: the load keeps the
// valid prefix before it, and the next flush rewrites the store.
func readErr(err error) error {
	if err == nil || errors.Is(err, bufio.ErrTooLong) {
		return nil
	}
	return fmt.Errorf("dse: read result cache: %w", err)
}

// SaveFile atomically persists every successful cached result to path,
// creating parent directories as needed, and returns how many entries
// were written. Entries are written in hash order, so two stores holding
// the same results are byte-identical. Error entries are not persisted —
// a config that failed to simulate is retried by the next process rather
// than remembered.
func (c *Cache) SaveFile(path string) (int, error) {
	c.mu.Lock()
	entries := make([]diskEntry, 0, len(c.m))
	for h, e := range c.m {
		if e.err != nil {
			continue
		}
		entries = append(entries, diskEntry{Hash: h, Result: e.res})
	}
	c.mu.Unlock()
	// Sort pointers: an entry carries its whole result.
	sorted := make([]*diskEntry, len(entries))
	for i := range entries {
		e := &entries[i]
		e.Key = Config{Arch: e.Result.Arch, Curve: e.Result.Curve, Opt: e.Result.Opt}.Key()
		sorted[i] = e
	}
	slices.SortFunc(sorted, func(a, b *diskEntry) int { return strings.Compare(a.Hash, b.Hash) })

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("dse: create cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	w := bufio.NewWriterSize(tmp, 64*1024)
	hdr, err := json.Marshal(diskHeader{Format: diskFormatName, Version: diskFormatVersion, Model: modelFingerprint()})
	if err == nil {
		_, err = w.Write(append(hdr, '\n'))
	}
	for i := 0; err == nil && i < len(sorted); i++ {
		e := sorted[i]
		var line []byte
		if line, err = appendStoreLine(w.AvailableBuffer(), e.Hash, e.Key, &e.Result); err == nil {
			_, err = w.Write(append(line, '\n'))
		}
	}
	if err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	return len(entries), nil
}
