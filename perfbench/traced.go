package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// startupReps is how many `dse -list` processes measure cmd.startup_ms.
const startupReps = 9

// perLayerUnit gives a per-layer metric its unit, by name suffix.
func perLayerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_mb", "MB"},
		{"_ratio", "ratio"}, {"_yield", "ratio"}, {"_per_s", "Minst/s"},
		{"_bytes", "bytes"},
	} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

// traced is the traced run. Its set-up fills a store and records the
// dse binary's outputs; then, in an order drawn from the seed, one fresh
// child process per workload re-enacts that workload with spans, and the
// cycle repeats while --seconds allow. Every per-layer metric comes from
// the child of the workload it belongs to, whichever workload the run
// names; values are medians over the cycles.
func (h *harness) traced(wl workload) (*result, error) {
	res := &result{Metrics: map[string]metric{}, info: map[string]any{}}
	store := filepath.Join(h.work, "store")
	coldOut, err := h.dseOK(sweepArgs("-cache-dir", store)...)
	if err != nil {
		return nil, err
	}
	_, coldSHA, _, err := checkSweep(coldOut)
	if err != nil {
		return nil, err
	}
	allOut, err := h.dseOK("-all")
	if err != nil {
		return nil, err
	}
	refs := map[string]string{
		"cold-sweep": coldSHA, "warm-restart": coldSHA, "adaptive-frontier": coldSHA,
		"report-all": sha(allOut),
	}

	values := map[string][]float64{}
	var startups []float64
	for i := 0; i < startupReps; i++ {
		s := h.runDSE("-list")
		res.Attempted++
		if s.err != nil {
			res.Failed++
			res.note("FAILED: %v", s.err)
			continue
		}
		startups = append(startups, ms(s.wall))
	}
	values["cmd.startup_ms"] = startups

	// The named workload's child runs first; the seed orders the rest.
	rng := rand.New(rand.NewPCG(h.seed, 0x7ace))
	order := []string{wl.name}
	for _, i := range rng.Perm(len(workloads)) {
		if workloads[i].name != wl.name {
			order = append(order, workloads[i].name)
		}
	}
	start := time.Now()
	var cycle time.Duration
	cycles := 0
	selfByName := map[string]map[string]time.Duration{} // last cycle's, per child
	for cycles == 0 || time.Since(start)+cycle < h.seconds {
		t0 := time.Now()
		sums := map[string]float64{}
		for _, name := range order {
			rep, err := h.runChild(name, store, refs[name])
			res.Attempted++
			if err == nil && len(rep.Errors) > 0 {
				err = fmt.Errorf("%s child: %v", name, rep.Errors)
			}
			if err != nil {
				res.Failed++
				res.note("FAILED: %v", err)
				continue
			}
			selfByName[name] = selfTimeByName(rep.Spans)
			for k, v := range rep.Metrics {
				if k == "trace.unattributed_ms" || k == "trace.overhead_ms" {
					sums[k] += v // summed over the four children
					continue
				}
				values[k] = append(values[k], v)
			}
		}
		for k, v := range sums {
			values[k] = append(values[k], v)
		}
		cycle = time.Since(t0)
		cycles++
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.Metrics[k] = metric{median(values[k]), perLayerUnit(k)}
	}
	res.note("traced run: %d cycle(s) of one fresh child per workload (order %v), %d dse -list processes", cycles, order, startupReps)
	res.note("trace.overhead_ms is the measured cost of one span times the spans recorded, summed over the children")
	for _, name := range order {
		res.note("%s child, largest self times: %s", name, topSelf(selfByName[name], 5))
	}
	res.info["children_order"] = order
	res.info["cycles"] = cycles
	res.info["self_ms_by_span"] = selfMS(selfByName)
	return res, nil
}

// runChild starts this binary as a traced child for one workload and
// reads the spans and metrics it writes.
func (h *harness) runChild(name, store, ref string) (*childReport, error) {
	out := filepath.Join(h.work, "child-"+name+".json")
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.self, "-child", name, "-store", store, "-ref", ref, "-out", out)
	cmd.Dir = h.work
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %v: %s", name, err, bytes.TrimSpace(stderr.Bytes()))
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep childReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", name, err)
	}
	return &rep, nil
}

// selfTimeByName sums the spans' self times per span name.
func selfTimeByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// topSelf renders the n span names with the largest self time.
func topSelf(m map[string]time.Duration, n int) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
	var b strings.Builder
	for i, k := range names {
		if i == n {
			break
		}
		fmt.Fprintf(&b, "%s %.1f ms; ", k, ms(m[k]))
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// selfMS converts per-child self times to milliseconds for the info line.
func selfMS(by map[string]map[string]time.Duration) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for child, m := range by {
		out[child] = map[string]float64{}
		for k, d := range m {
			out[child][k] = ms(d)
		}
	}
	return out
}
