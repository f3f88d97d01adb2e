// Command dse is the design-space-exploration harness: it regenerates the
// paper's tables and figures, runs a single configuration, or sweeps the
// whole design space in parallel and reports the Pareto frontier.
//
// Usage:
//
//	dse -all                     # every table and figure
//	dse -exp fig7.1              # one experiment (see -list)
//	dse -arch monte -curve P-256 # one configuration
//	dse -arch monte -workload handshake  # price the WSN handshake scenario
//	dse -arch isa-ext+icache -line 32    # non-default I-cache line size
//	dse -list                    # experiment identifiers
//	dse -sweep                   # full design-space sweep
//	dse -sweep -workers 8 -json  # machine-readable, 8-way parallel
//	dse -sweep -pareto           # energy-vs-latency frontier only
//	dse -sweep -cache-dir .dse   # persist results; re-sweeps are near-free
//	dse -sweep -progress         # live per-point counter on stderr
//	dse -sweep -workload ecdh,handshake  # sweep exactly these scenarios
//	                                     # (replaces the default sign-verify axis)
//	dse -sweep -curves P-192,B-163       # restrict the curve axis
//	dse -sweep -adaptive                 # Pareto-guided exploration: the per-level
//	                                     # frontiers without pricing the whole grid
//	dse -sweep -adaptive -adaptive-budget 200  # cap evaluated configurations
//
// The design-space flags are generated from the dse axis registry: the
// dimension selectors (-arch, -curve) from its dimension axes and the
// per-knob flags (-cache, -prefetch, -ideal-cache, -no-double-buffer,
// -width, -digit, -gate-accel-idle, -line, -workload) from its option
// axes; -list prints the registry alongside the experiment identifiers.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		all  = flag.Bool("all", false, "regenerate every table and figure")
		exp  = flag.String("exp", "", "regenerate one experiment (e.g. fig7.1, table7.4)")
		list = flag.Bool("list", false, "list experiment identifiers and design-space axes")

		sweep    = flag.Bool("sweep", false, "sweep the full design space (10 curves x 5 architectures with cache/line/width/digit sub-sweeps)")
		pareto   = flag.Bool("pareto", false, "with -sweep: print only the energy-vs-latency Pareto frontier")
		workers  = flag.Int("workers", 0, "sweep worker-pool width (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "with -sweep: machine-readable JSON output")
		cacheDir = flag.String("cache-dir", "", "with -sweep: persist the result cache in this directory so repeated sweeps are served from disk")
		progress = flag.Bool("progress", false, "with -sweep: render a live per-point progress counter to stderr")
		curves   = flag.String("curves", "", "with -sweep: comma-separated curve subset replacing the full 10-curve axis")

		adaptive       = flag.Bool("adaptive", false, "with -sweep: adaptive Pareto-guided exploration — refine around the live per-security-level frontiers instead of pricing the whole grid")
		adaptiveBudget = flag.Int("adaptive-budget", 0, "with -sweep -adaptive: evaluate at most this many configurations (0 = explore until the frontiers stop moving)")

		stats     = flag.Bool("stats", false, "after a -sweep or -arch run: print collected telemetry (per-phase census-vs-pricing split, sweep stage timing, cache counters)")
		traceFile = flag.String("trace", "", "with -sweep: append one JSON event per run stage (sweep start/point/flush/end) to this file")
		httpAddr  = flag.String("http", "", "with -sweep: serve live /metrics, /progress and /debug/pprof on this address (e.g. :8080) while the sweep runs")
	)
	// Every design-space flag is generated from the dse axis registry:
	// the dimension selectors (-arch, -curve) from the dimension axes,
	// and every knob (-cache, -prefetch, -ideal-cache,
	// -no-double-buffer, -width, -digit, -gate-accel-idle, -line,
	// -workload) from the option axes. Registering a new axis there
	// surfaces its flag here with no per-flag wiring.
	dims := repro.RegisterDimensionFlags(flag.CommandLine)
	arch, curve := dims["arch"], dims["curve"]
	applyAxes := repro.RegisterAxisFlags(flag.CommandLine)
	flag.Parse()
	// The workload flag doubles as the sweep-mode axis list, so its raw
	// string is read back from the generated flag.
	workload := flag.CommandLine.Lookup("workload").Value.String()

	// The design-space flags other than -workload configure a single
	// -arch run; collected here so the coherence rules can reject one a
	// sweep or experiment mode would silently drop.
	var axisFlags []string
	if *arch == "" {
		isAxis := make(map[string]bool)
		for _, name := range repro.AxisFlagNames() {
			isAxis[name] = true
		}
		flag.Visit(func(f *flag.Flag) {
			if isAxis[f.Name] && f.Name != "workload" {
				axisFlags = append(axisFlags, f.Name)
			}
		})
	}
	// Every flag-coherence rule lives in conflictError so each rejection
	// is regression-testable; main only prints the verdict and exits.
	if msg := conflictError(cliFlags{
		list: *list, sweep: *sweep, all: *all,
		exp: *exp, arch: *arch,
		workload: workload, curves: *curves,
		adaptive: *adaptive, adaptiveBudget: *adaptiveBudget,
		jsonOut: *jsonOut, pareto: *pareto, progress: *progress,
		workers: *workers, stats: *stats,
		traceFile: *traceFile, cacheDir: *cacheDir, httpAddr: *httpAddr,
		axisFlags: axisFlags,
	}); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}

	switch {
	case *list:
		for _, n := range repro.ExperimentNames() {
			fmt.Println(n)
		}
		fmt.Println("\ndesign-space axes (SweepSpec fields / flags, generated from the axis registry):")
		fmt.Print(repro.AxesHelp())
	case *sweep:
		err := runSweep(sweepConfig{
			workers: *workers, paretoOnly: *pareto, jsonOut: *jsonOut,
			cacheDir: *cacheDir, workloads: workload, curves: *curves,
			progress: *progress, stats: *stats,
			traceFile: *traceFile, httpAddr: *httpAddr,
			adaptive: *adaptive, adaptiveBudget: *adaptiveBudget,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *all:
		out, err := repro.Experiments()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *exp != "":
		out, err := repro.Experiment(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *arch != "":
		a, err := repro.ParseArchitecture(*arch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		curveName, err := repro.ParseCurveName(*curve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt := repro.DefaultOptions()
		applyAxes(&opt)
		var reg *repro.Metrics
		if *stats {
			reg = repro.NewMetrics()
			repro.EnableSimMetrics(reg)
		}
		r, err := repro.Simulate(a, curveName, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printResult(r)
		if reg != nil {
			fmt.Println()
			printStats(os.Stdout, reg, nil)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// sweepConfig carries the parsed -sweep flags into runSweep.
type sweepConfig struct {
	workers             int
	paretoOnly, jsonOut bool
	cacheDir, workloads string
	curves              string
	progress, stats     bool
	traceFile, httpAddr string
	adaptive            bool
	adaptiveBudget      int
}

// cliFlags captures the parsed flag state the coherence rules inspect.
type cliFlags struct {
	list, sweep, all              bool
	exp, arch                     string
	workload, curves              string
	adaptive                      bool
	adaptiveBudget                int
	jsonOut, pareto, progress     bool
	workers                       int
	stats                         bool
	traceFile, cacheDir, httpAddr string
	// axisFlags are non-workload design-space flags set without -arch
	// (they configure a single -arch run only).
	axisFlags []string
}

// conflictError returns the message dse prints (exiting 1) for a flag
// combination that selects conflicting behavior, or "" when the
// combination is coherent. Exactly one mode may be selected, and a flag
// another mode would silently drop is an error, not default output —
// factored out of main so every rejection is regression-testable.
func conflictError(c cliFlags) string {
	modes := 0
	for _, on := range []bool{c.list, c.sweep, c.all, c.exp != "", c.arch != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return "conflicting modes: pick exactly one of -list, -sweep, -all, -exp, -arch"
	case c.workload != "" && (c.all || c.exp != "" || c.list):
		// The experiment renderers price fixed scenarios.
		return "-workload applies to -arch runs and -sweep; -all/-exp/-list render fixed experiments"
	case len(c.axisFlags) > 0:
		return fmt.Sprintf("-%s applies to -arch runs only; -sweep explores the full axis grid (use -curves/-workload to subset it)", c.axisFlags[0])
	case c.curves != "" && !c.sweep:
		return "-curves applies to -sweep only"
	case c.adaptive && !c.sweep:
		return "-adaptive applies to -sweep only: adaptive exploration refines the sweep grid (run dse -sweep -adaptive)"
	case c.adaptiveBudget != 0 && !c.adaptive:
		return "-adaptive-budget applies to -sweep -adaptive only"
	}
	if !c.sweep {
		switch {
		case c.jsonOut || c.pareto || c.workers != 0 || c.progress || c.httpAddr != "" ||
			c.traceFile != "" || c.cacheDir != "":
			return "-json, -pareto, -workers, -progress, -http, -trace and -cache-dir apply to -sweep only"
		case c.stats && c.arch == "":
			return "-stats applies to -sweep and -arch runs only"
		}
	}
	return ""
}

// openJournal opens (or creates) a run-journal file in append mode so
// successive sweeps can share one trace, returning a nil journal (whose
// Emit is a no-op) when no file was requested.
func openJournal(path string) (*repro.RunJournal, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open -trace file: %w", err)
	}
	j := repro.NewRunJournal(f)
	return j, func() {
		if err := j.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: run journal incomplete: %v\n", err)
		}
		f.Close()
	}, nil
}

// runSweep explores the full design space and prints either the whole point cloud or just its Pareto frontier, as
// text or JSON.
func runSweep(cfg sweepConfig) error {
	spec := repro.FullSweepSpec()
	if cfg.workloads != "" {
		for _, wl := range strings.Split(cfg.workloads, ",") {
			wl = strings.TrimSpace(wl)
			if wl == "" {
				return fmt.Errorf("empty workload name in -workload %q (want a comma-separated subset of %v)",
					cfg.workloads, repro.WorkloadNames())
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
	}
	if cfg.curves != "" {
		spec.Curves = nil
		for _, c := range strings.Split(cfg.curves, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				return fmt.Errorf("empty curve name in -curves %q (want a comma-separated subset of %v)",
					cfg.curves, repro.CurveNames())
			}
			spec.Curves = append(spec.Curves, c)
		}
	}
	opt := repro.SweepOptions{Workers: cfg.workers, CacheDir: cfg.cacheDir}

	// -stats and -http both need the registry; the simulator hook and the
	// cache gauges ride along so /metrics shows the whole pipeline.
	var reg *repro.Metrics
	if cfg.stats || cfg.httpAddr != "" {
		reg = repro.NewMetrics()
		repro.EnableSimMetrics(reg)
		repro.RegisterCacheMetrics(reg)
		opt.Metrics = reg
	}
	journal, closeJournal, err := openJournal(cfg.traceFile)
	if err != nil {
		return err
	}
	defer closeJournal()
	opt.Journal = journal

	var track *repro.SweepProgressTracker
	if cfg.httpAddr != "" {
		track = &repro.SweepProgressTracker{}
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("-http %s: %w", cfg.httpAddr, err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /progress and /debug/pprof on http://%s\n", ln.Addr())
		srv := &http.Server{Handler: repro.TelemetryHandler(reg, track)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	// The progress callback only paints the live \r-overwritten counter;
	// the newline-terminated final tally is printed after Sweep returns
	// (success or failure), so an aborted sweep never leaves a stale
	// partial line for the next output to collide with.
	var rendered bool
	var lastDone, cachedSoFar int
	if cfg.progress || track != nil {
		opt.Progress = func(done, total int, fromCache bool) {
			lastDone = done
			if fromCache {
				cachedSoFar++
			}
			if track != nil {
				track.Observe(done, total, fromCache)
			}
			if cfg.progress {
				rendered = true
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d configurations (%d cached)", done, total, cachedSoFar)
			}
		}
	}
	var (
		res *repro.SweepResult
		ar  *repro.AdaptiveResult
	)
	if cfg.adaptive {
		opt.AdaptiveBudget = cfg.adaptiveBudget
		ar, err = repro.AdaptiveSweep(spec, opt)
		if ar != nil {
			res = ar.Result
		}
	} else {
		res, err = repro.Sweep(spec, opt)
	}
	if rendered {
		// Terminate (and on failure, visibly close off) the live line.
		fmt.Fprintln(os.Stderr)
	}
	if cfg.progress {
		simulated, cached := lastDone-cachedSoFar, cachedSoFar
		if res != nil {
			simulated, cached = int(res.CacheMisses), int(res.CacheHits)
		}
		status := "done"
		if err != nil {
			status = "failed"
		}
		fmt.Fprintf(os.Stderr, "sweep %s: %d simulated, %d cached\n", status, simulated, cached)
	}
	if err != nil {
		return err
	}
	if cfg.cacheDir != "" && !cfg.jsonOut {
		if res.DiskUnchanged {
			fmt.Printf("persistent cache: %d results loaded from %s, store already up to date (nothing flushed)\n",
				res.DiskLoaded, cfg.cacheDir)
		} else {
			fmt.Printf("persistent cache: %d results loaded from %s, %d flushed back\n",
				res.DiskLoaded, cfg.cacheDir, res.DiskSaved)
		}
	}
	if ar != nil && !cfg.jsonOut {
		fmt.Printf("adaptive exploration: %d/%d grid configurations evaluated (%.0f%%) in %d rounds (%d pruned, %d frontier moves)\n",
			ar.Evaluated, ar.GridConfigs,
			100*float64(ar.Evaluated)/float64(max(ar.GridConfigs, 1)),
			ar.Rounds, ar.Pruned, ar.FrontierMoves)
		if ar.BudgetHit {
			fmt.Printf("stopped on -adaptive-budget %d before the frontiers converged; the frontiers below may be incomplete\n",
				cfg.adaptiveBudget)
		}
	}
	switch {
	case cfg.jsonOut && cfg.paretoOnly:
		out, err := repro.SweepFrontiersJSON(res.Points)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case cfg.jsonOut && ar != nil:
		out, err := ar.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case cfg.jsonOut:
		out, err := res.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case ar != nil:
		if cfg.paretoOnly {
			frontier := repro.Pareto(res.Points)
			fmt.Printf("energy-vs-latency Pareto frontier: %d of %d evaluated configurations (cache %d hit / %d miss)\n",
				len(frontier), res.Configs, res.CacheHits, res.CacheMisses)
			printPoints(frontier)
			fmt.Println()
		}
		fmt.Println("per-security-level frontiers (fixed key strength):")
		for _, lf := range ar.Frontiers {
			fmt.Printf("[level %d, ~%d-bit]\n", lf.Level, lf.SecurityBits)
			printPoints(lf.Points)
		}
	case cfg.paretoOnly:
		frontier := repro.Pareto(res.Points)
		fmt.Printf("energy-vs-latency Pareto frontier: %d of %d unique configurations (grid %d, workers %d, cache %d hit / %d miss)\n",
			len(frontier), res.Configs, res.RawPoints, res.Workers,
			res.CacheHits, res.CacheMisses)
		printPoints(frontier)
		fmt.Println("\nper-security-level frontiers (fixed key strength):")
		for _, lf := range repro.ParetoPerSecurity(res.Points) {
			fmt.Printf("[level %d, ~%d-bit]\n", lf.Level, lf.SecurityBits)
			printPoints(lf.Points)
		}
	default:
		fmt.Printf("design-space sweep: %d unique configurations (grid %d, workers %d, cache %d hit / %d miss)\n",
			res.Configs, res.RawPoints, res.Workers,
			res.CacheHits, res.CacheMisses)
		printPoints(res.Points)
	}
	if cfg.stats {
		// In -json mode stdout is a machine-readable document; the human
		// stats report moves to stderr instead of corrupting it.
		w := os.Stdout
		if cfg.jsonOut {
			w = os.Stderr
		} else {
			fmt.Println()
		}
		printStats(w, reg, res.Timing)
	}
	return nil
}

// printPoints renders a point table.
func printPoints(points []repro.SweepPoint) {
	fmt.Printf("%-16s %-8s %-22s %12s %12s %14s\n",
		"arch", "curve", "options", "energy(uJ)", "time(ms)", "EDP(nJ.s)")
	for _, p := range points {
		label := p.Config.OptionsLabel()
		if label == "" {
			label = "-"
		}
		fmt.Printf("%-16s %-8s %-22s %12.2f %12.3f %14.4f\n",
			p.Config.Arch, p.Config.Curve, label,
			p.EnergyJ*1e6, p.TimeS*1e3, p.EDP*1e12)
	}
}

func printResult(r repro.SimResult) {
	fmt.Printf("configuration : %s on %s\n", r.Arch, r.Curve)
	fmt.Printf("workload      : %s\n", r.Workload)
	for _, ph := range r.Phases {
		fmt.Printf("%-14s: %d cycles (%.2f ms, %.2f uJ)\n", ph.Name, ph.Cycles,
			ph.Seconds()*1e3, ph.Energy.Total()*1e6)
	}
	bd := r.CombinedBreakdown()
	fmt.Printf("energy (uJ)   : total=%.2f pete=%.2f rom=%.2f ram=%.2f uncore=%.2f accel=%.2f\n",
		bd.Total()*1e6, bd.Pete*1e6, bd.ROM*1e6, bd.RAM*1e6, bd.Uncore*1e6, bd.Accel*1e6)
	fmt.Printf("average power : %.2f mW (static %.2f, dynamic %.2f)\n",
		r.Power.Total()*1e3, r.Power.StaticW*1e3, r.Power.DynamicW*1e3)
}
