// Command perfbench is the repository's end-to-end benchmark for cmd/dse.
//
// Every sample is a fresh dse process, because a dse user always starts
// one. A run measures one workload for a fixed time and prints, as its
// last line, one JSON object with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run). run.sh builds both binaries and
// invokes it:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-end-to-end predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "seed; orders the traced children and picks the store each warm restart reads (never reaches dse)")
		seconds  = fs.Int("seconds", 15, "how long the timed processes of one run are started for")
		trace    = fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		root     = fs.String("root", ".", "checkout root (the benchmark's working files go under its .bench_build)")
		dse      = fs.String("dse", "", "path of the dse binary built from this checkout")

		child    = fs.String("child", "", "internal: re-enact this workload in-process with spans")
		childOut = fs.String("out", "", "internal: where the child writes its spans and metrics")
		store    = fs.String("store", "", "internal: the filled store directory a warm-restart child loads")
		refSHA   = fs.String("ref", "", "internal: SHA-256 of the normalized output the child must reproduce")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		if err := runChild(*child, *store, *refSHA, *childOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *dse == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -dse, -seconds >= 1 and -trace 0|1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(*root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	h := &harness{
		dse: *dse, self: self, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		prov:    provenance(*root, *seed),
	}
	var res *result
	if *trace == 1 {
		res, err = h.traced(wl)
	} else {
		res, err = h.endToEnd(wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout, wl.name, h.prov)
	return 0
}

// harness holds what every run of the benchmark shares.
type harness struct {
	dse, self, work string
	seed            uint64
	seconds         time.Duration
	prov            map[string]any
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the last-line JSON plus the human-readable
// notes and informational fields printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string       // human-readable lines
	info  map[string]any // printed as one JSON line before the result
}

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *result) print(w io.Writer, workload string, prov map[string]any) {
	fmt.Fprintf(w, "perfbench workload %s\n", workload)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	info := map[string]any{"workload": workload, "provenance": prov}
	for k, v := range r.info {
		info[k] = v
	}
	b, _ := json.Marshal(map[string]any{"info": info}) // plain maps of strings and numbers always marshal
	fmt.Fprintln(w, string(b))
	b, _ = json.Marshal(r)
	fmt.Fprintln(w, string(b))
}

// provenance records what produced a result: the seed, the host's CPU
// count, GOMAXPROCS, the Go version and the commit (or, in a checkout
// that is not a git repository, a digest of its Go sources).
func provenance(root string, seed uint64) map[string]any {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit,
		"source_sha256":  sourceDigest(root),
		"dse_workers":    dseWorkers,
		"dse_concurrent": 1,
	}
}

// sourceDigest hashes every Go source and go.mod under root (outside
// the benchmark's build directory), in path order.
func sourceDigest(root string) string {
	var buf []byte
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		buf = append(buf, rel...)
		buf = append(buf, 0)
		buf = append(buf, sha(b)...)
		return nil
	})
	return sha(buf)
}
