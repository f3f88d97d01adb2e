package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// gridConfigs is the number of unique configurations in FullSweep under
// all four scenarios: the size every sweep output must report.
const gridConfigs = 2120

// sweepDoc is the part of a `dse -sweep -json` document the checks read.
type sweepDoc struct {
	Configs        int        `json:"configs"`
	CacheMisses    uint64     `json:"cacheMisses"`
	DiskUnchanged  bool       `json:"diskUnchanged"`
	Points         []pointDoc `json:"points"`
	ParetoPerLevel []struct {
		Level  int        `json:"level"`
		Points []pointDoc `json:"points"`
	} `json:"paretoPerLevel"`
}

type pointDoc struct {
	Hash        string `json:"hash"`
	TotalCycles uint64 `json:"totalCycles"`
}

// runHeaderFields are the sweep header fields that describe how a run
// was served (worker count, result-cache and disk-store accounting), not
// what it computed. Normalization drops them, so a warm restart and a
// cold sweep of the same grid compare equal.
var runHeaderFields = []string{"workers", "cacheHits", "cacheMisses", "diskLoaded", "diskSaved", "diskUnchanged"}

// normalizeSweep parses a sweep document and re-encodes it without the
// run header fields; the result is canonical (sorted keys, compact).
func normalizeSweep(out []byte) ([]byte, sweepDoc, error) {
	var doc sweepDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		return nil, doc, fmt.Errorf("sweep output is not JSON: %w", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &raw); err != nil {
		return nil, doc, fmt.Errorf("sweep output is not a JSON object: %w", err)
	}
	for _, k := range runHeaderFields {
		delete(raw, k)
	}
	norm, err := json.Marshal(raw)
	return norm, doc, err
}

// normalizeAdaptive normalizes a `dse -sweep -adaptive -json` document:
// its embedded sweep loses the run header fields, the exploration
// economics stay.
func normalizeAdaptive(out []byte) ([]byte, sweepDoc, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &raw); err != nil {
		return nil, sweepDoc{}, fmt.Errorf("adaptive output is not a JSON object: %w", err)
	}
	inner, doc, err := normalizeSweep(raw["sweep"])
	if err != nil {
		return nil, doc, err
	}
	raw["sweep"] = inner
	norm, err := json.Marshal(raw)
	return norm, doc, err
}

// frontierKey renders the per-security-level frontiers as level:hash
// lists, the identity two explorations of one grid must agree on.
func frontierKey(doc sweepDoc) string {
	var b strings.Builder
	for _, lf := range doc.ParetoPerLevel {
		fmt.Fprintf(&b, "L%d:", lf.Level)
		for _, p := range lf.Points {
			b.WriteString(p.Hash)
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	return b.String()
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// anchorsFromSweep reads the anchors' Sign+Verify latencies (100K
// cycles) from a sweep document, selecting each point by its canonical
// config hash.
func anchorsFromSweep(doc sweepDoc, anchors []anchor) (map[string]float64, error) {
	byHash := make(map[string]uint64, len(doc.Points))
	for _, p := range doc.Points {
		byHash[p.Hash] = p.TotalCycles
	}
	out := make(map[string]float64, len(anchors))
	for _, a := range anchors {
		h, err := a.hash()
		if err != nil {
			return nil, err
		}
		if c, ok := byHash[h]; ok {
			out[a.label()] = float64(c) / 1e5
		}
	}
	return out, nil
}

// anchorsFromReport reads the Sign+Verify column of the Table 7.1 and
// Table 7.2 renderings in `dse -all` output (100K cycles, one decimal).
func anchorsFromReport(out string) map[string]float64 {
	res := make(map[string]float64)
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "Table 7.1:"), strings.HasPrefix(line, "Table 7.2:"):
			in = true
			continue
		case strings.TrimSpace(line) == "":
			in = false
			continue
		case !in:
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			continue
		}
		res[f[0]+"/"+f[1]] = v
	}
	return res
}

// reportTitles maps each experiment of report.Names() to the first line
// its rendering starts with in `dse -all` output.
var reportTitles = map[string]string{
	"table7.1": "Table 7.1:", "table7.2": "Table 7.2:", "table7.3": "Table 7.3:",
	"table7.4": "Table 7.4:", "table7.5": "Table 7.5:",
	"fig7.1": "Figure 7.1:", "fig7.2": "Figure 7.2:", "fig7.3": "Figure 7.3:",
	"fig7.4": "Figure 7.4:", "fig7.5": "Figure 7.5:", "fig7.6": "Figure 7.6:",
	"fig7.7": "Figure 7.7:", "fig7.8": "Figure 7.8:", "fig7.9": "Figure 7.9:",
	"fig7.10": "Figure 7.10:", "fig7.11": "Figure 7.11:", "fig7.12": "Figure 7.12:",
	"fig7.13": "Figure 7.13:", "fig7.14": "Figure 7.14:", "fig7.15": "Figure 7.15:",
	"doublebuffer": "Section 7.7: Double-buffer",
	"gating":       "Chapter 8 (future work): accelerator idle gating",
	"ffauwidth":    "FFAU datapath-width study",
	"bestdesign":   "Best design points",
	"handshake":    "Workload study:",
}

// checkReportNames verifies that the output names every experiment, in
// order: by its rendered title (`dse -all`), or by its identifier on a
// line of its own (`dse -list`).
func checkReportNames(out []byte, names []string, rendered bool) error {
	lines := bytes.Split(out, []byte("\n"))
	i := 0
	for _, n := range names {
		title, ok := reportTitles[n]
		if !ok {
			return fmt.Errorf("experiment %q has no known title", n)
		}
		match := func(l []byte) bool { return bytes.HasPrefix(l, []byte(title)) }
		if !rendered {
			match = func(l []byte) bool { return string(l) == n }
		}
		for i < len(lines) && !match(lines[i]) {
			i++
		}
		if i == len(lines) {
			return fmt.Errorf("experiment %q (%q) missing or out of order", n, title)
		}
		i++
	}
	return nil
}
