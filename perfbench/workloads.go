package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/report"
)

// dseWorkers pins the sweep worker pool of every dse process.
const dseWorkers = 2

// setupReps is how many times a run prepares its inputs, unless the
// workload sets its own count; setup_s is the median.
const setupReps = 3

// minSamples is the fewest timed processes a run makes, however short
// --seconds is.
const minSamples = 3

// procTimeout bounds one dse process.
const procTimeout = 90 * time.Second

const scenarios = "sign-verify,keygen,ecdh,handshake"

// sweepArgs is the grid every sweep workload runs: FullSweep under all
// four scenarios (2120 unique configurations).
func sweepArgs(extra ...string) []string {
	return append([]string{"-sweep", "-workload", scenarios, "-workers", strconv.Itoa(dseWorkers), "-json"}, extra...)
}

// workload is one named way a user waits on dse.
type workload struct {
	name, why string
	// reps overrides setupReps for a set-up too short to time steadily
	// in three repetitions.
	reps int
	// setup prepares one repetition of the workload's inputs in dir and
	// records the references the timed outputs are checked against.
	setup func(h *harness, st *runState, dir string) error
	// args is the timed dse command line, given the prepared input dir.
	args func(dir string) []string
	// check validates one timed output and returns the SHA-256 of its
	// normalized form and the anchors' reproduced latencies.
	check func(st *runState, out []byte) (string, map[string]float64, error)
}

// runState carries a run's references from setup to the checks.
type runState struct {
	refSHA   string // normalized reference output
	refFront string // cold-sweep per-level frontier identity
	storeSHA string // warm-restart store file
	firstSHA string // first timed output, for workloads without a cold reference
	// anchors holds the anchors' latencies read in set-up, for a workload
	// whose own output does not carry every anchor.
	anchors map[string]float64
}

// agree records v as the reference, or fails when an earlier repetition
// recorded a different one.
func agree(ref *string, v, what string) error {
	if *ref == "" {
		*ref = v
		return nil
	}
	if *ref != v {
		return fmt.Errorf("%s differs between repetitions (%.12s vs %.12s)", what, *ref, v)
	}
	return nil
}

var workloads = []workload{
	{
		name: "cold-sweep",
		why:  "full 2120-config grid in a fresh process with no store: census profiling over gf2/mp, worker pool and pricing",
		// The input is an empty working directory; set-up checks that the
		// binary starts. The first timed output is the reference the
		// others must reproduce.
		reps: 9,
		setup: func(h *harness, st *runState, dir string) error {
			out, err := h.dseOK("-list")
			if err != nil {
				return err
			}
			return checkReportNames(out, report.Names(), false)
		},
		args: func(string) []string { return sweepArgs() },
		check: func(st *runState, out []byte) (string, map[string]float64, error) {
			_, shaN, anchors, err := checkSweep(out)
			if err == nil {
				err = agree(&st.refSHA, shaN, "cold-sweep output")
			}
			return shaN, anchors, err
		},
	},
	{
		name: "warm-restart",
		why:  "the same sweep restarted from a filled -cache-dir store: model fingerprint, store decode, assembly and JSON encode only",
		setup: func(h *harness, st *runState, dir string) error {
			out, err := h.dseOK(sweepArgs("-cache-dir", dir)...)
			if err != nil {
				return err
			}
			_, shaN, _, err := checkSweep(out)
			if err != nil {
				return err
			}
			if err := agree(&st.refSHA, shaN, "store-filling sweep output"); err != nil {
				return err
			}
			b, err := os.ReadFile(filepath.Join(dir, "results.v2.jsonl"))
			if err != nil {
				return fmt.Errorf("filled store: %w", err)
			}
			return agree(&st.storeSHA, sha(b), "filled store")
		},
		args: func(dir string) []string { return sweepArgs("-cache-dir", dir) },
		check: func(st *runState, out []byte) (string, map[string]float64, error) {
			doc, shaN, anchors, err := checkSweep(out)
			switch {
			case err != nil:
			case doc.CacheMisses != 0 || !doc.DiskUnchanged:
				err = fmt.Errorf("warm restart missed the store: cacheMisses=%d diskUnchanged=%v", doc.CacheMisses, doc.DiskUnchanged)
			case shaN != st.refSHA:
				err = fmt.Errorf("warm-restart output differs from the cold sweep that filled its store")
			}
			return shaN, anchors, err
		},
	},
	{
		name: "report-all",
		why:  "dse -all: 25 experiments rendered serially through report, many single sim.Run calls, no worker pool",
		setup: func(h *harness, st *runState, dir string) error {
			out, err := h.dseOK("-all")
			if err != nil {
				return err
			}
			if err := checkReportNames(out, report.Names(), true); err != nil {
				return err
			}
			return agree(&st.refSHA, sha(out), "report output")
		},
		args: func(string) []string { return []string{"-all"} },
		check: func(st *runState, out []byte) (string, map[string]float64, error) {
			s := sha(out)
			if s != st.refSHA {
				return s, nil, fmt.Errorf("report output differs from the set-up reference")
			}
			return s, anchorsFromReport(string(out)), nil
		},
	},
	{
		name: "adaptive-frontier",
		why:  "dse -sweep -adaptive over the same grid: the Pareto-guided explorer against the exhaustive cold sweep",
		setup: func(h *harness, st *runState, dir string) error {
			out, err := h.dseOK(sweepArgs()...)
			if err != nil {
				return err
			}
			doc, _, anchors, err := checkSweep(out)
			if err != nil {
				return err
			}
			st.anchors = anchors
			return agree(&st.refFront, frontierKey(doc), "cold-sweep frontiers")
		},
		args: func(string) []string { return sweepArgs("-adaptive") },
		check: func(st *runState, out []byte) (string, map[string]float64, error) {
			norm, doc, err := normalizeAdaptive(out)
			if err != nil {
				return "", nil, err
			}
			s := sha(norm)
			if frontierKey(doc) != st.refFront {
				return s, nil, fmt.Errorf("adaptive frontiers differ from the exhaustive cold sweep's")
			}
			// The explorer prices only part of the grid, so the anchors come
			// from the exhaustive sweep its frontiers were checked against.
			return s, st.anchors, agree(&st.firstSHA, s, "adaptive output")
		},
	},
}

// checkSweep validates a sweep document: it parses, covers the whole
// grid, and yields its normalized SHA-256 and the anchors' latencies.
func checkSweep(out []byte) (sweepDoc, string, map[string]float64, error) {
	norm, doc, err := normalizeSweep(out)
	if err != nil {
		return doc, "", nil, err
	}
	if doc.Configs != gridConfigs || len(doc.Points) != gridConfigs {
		return doc, "", nil, fmt.Errorf("sweep reports %d configs / %d points, want %d", doc.Configs, len(doc.Points), gridConfigs)
	}
	anchors, err := anchorsFromSweep(doc, paperAnchors)
	return doc, sha(norm), anchors, err
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one finished dse process.
type sample struct {
	wall, cpu time.Duration
	rssMB     float64
	out       []byte
	err       error
}

// runDSE starts one dse process, waits for it, and measures it: wall
// time in host time, user+system CPU and peak RSS from its rusage.
func (h *harness) runDSE(args ...string) sample {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.dse, args...)
	cmd.Dir = h.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start), out: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		s.err = fmt.Errorf("dse %v: %v: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return s
}

// dseOK runs one dse process and returns its stdout, or its failure.
func (h *harness) dseOK(args ...string) ([]byte, error) {
	s := h.runDSE(args...)
	return s.out, s.err
}

// endToEnd is the untraced run: set the workload up setupReps times,
// then start timed dse processes one at a time until --seconds have
// passed, checking every output.
func (h *harness) endToEnd(wl workload) (*result, error) {
	st := &runState{}
	dirs := make([]string, cmp.Or(wl.reps, setupReps))
	var setups []float64
	for i := range dirs {
		dirs[i] = filepath.Join(h.work, fmt.Sprintf("input-%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := wl.setup(h, st, dirs[i]); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	rng := rand.New(rand.NewPCG(h.seed, 0x5eed))
	res := &result{Metrics: map[string]metric{}, info: map[string]any{}}
	var walls, cpus, rss []float64
	var anchors map[string]float64
	shas := map[string]int{}
	start := time.Now()
	for res.Attempted < minSamples || time.Since(start) < h.seconds {
		dir := dirs[rng.IntN(len(dirs))]
		s := h.runDSE(wl.args(dir)...)
		res.Attempted++
		if s.err == nil {
			var shaN string
			var a map[string]float64
			shaN, a, s.err = wl.check(st, s.out)
			if shaN != "" {
				shas[shaN]++
			}
			if anchors == nil {
				anchors = a
			}
		}
		if s.err != nil {
			res.Failed++
			res.note("FAILED: %v", s.err)
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, s.rssMB)
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: all %d processes failed", wl.name, res.Attempted)
	}
	ae, err := anchorErrors(anchors, paperAnchors)
	if err != nil {
		res.note("FAILED: paper anchors: %v", err)
	}
	res.Correct = res.Failed == 0 && err == nil

	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["paper_latency_err_max"] = metric{ae.Max, "ratio"}
	res.Metrics["paper_latency_err_mean"] = metric{ae.Mean, "ratio"}

	res.note("closed loop: one dse process at a time, -workers %d; %d set-ups, %d timed processes over %.1f s",
		dseWorkers, len(dirs), res.Attempted, time.Since(start).Seconds())
	res.note("error_rate = %d/%d = %.4g", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	res.note("wall_s tail: %s", tailPercentile(walls))
	res.note("cpu_s tail: %s", tailPercentile(cpus))
	res.note("paper anchors: max %.4f (%s), mean %.4f over %d Table 7.1/7.2 Sign+Verify latencies; the model is validated only against these anchors",
		ae.Max, ae.Worst, ae.Mean, len(paperAnchors))
	res.info["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	res.info["wall_s_samples"] = walls
	res.info["setup_s_samples"] = setups
	res.info["output_sha256"] = shas
	res.info["anchor_worst"] = ae.Worst
	return res, nil
}
