// Command domd is the DoMD estimation CLI: it loads the NMD tables (CSV, as
// written by cmd/navsim or exported from the Navy environment), trains the
// estimation pipeline, and answers DoMD queries, evaluates held-out quality,
// or runs the greedy pipeline design.
//
// Subcommands:
//
//	domd query    -avails a.csv -rccs r.csv -avail 188 -date 2023-06-01
//	domd evaluate -avails a.csv -rccs r.csv
//	domd design   -avails a.csv -rccs r.csv [-quick]
//	domd train    -avails a.csv -rccs r.csv -model-dir models
//	domd serve    -avails a.csv -rccs r.csv -model-dir models -addr :8080
//
// The full list lives in the subcommands table, which both the dispatcher
// and the usage text render from, so `domd -h` cannot lag the binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"domd/internal/backtest"
	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/drift"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/ml/gbt"
	"domd/internal/modelserve"
	"domd/internal/server"
	"domd/internal/split"
	"domd/internal/statusq"
	"domd/internal/table"
	"domd/internal/wal"
)

// subcommands is the single source of truth for the CLI surface: main
// dispatches from it and usage() renders it, so the help text cannot
// drift from what the binary actually runs (scripts/check_docs.sh
// additionally checks every name here is documented in README.md).
var subcommands = []struct {
	name, blurb string
	run         func([]string)
}{
	{"query", "estimate delay of one avail at a physical date", runQuery},
	{"evaluate", "train on the historical split and print test-set quality", runEvaluate},
	{"design", "run the greedy pipeline design (Problem 2)", runDesign},
	{"train", "train one model per logical-time window and publish a version into the model registry", runTrain},
	{"serve", "train (or -load) a pipeline and serve the SMDII JSON API", runServe},
	{"backtest", "walk-forward (rolling-origin) evaluation across history", runBacktest},
	{"importances", "train (or -load) a pipeline and print the global delay drivers", runImportances},
	{"drift", "compare live feature distributions against a reference fleet", runDrift},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("domd: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	for _, sc := range subcommands {
		if sc.name == cmd {
			sc.run(args)
			return
		}
	}
	usage()
}

func usage() {
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	fmt.Fprintf(os.Stderr, "usage: domd <%s> [flags]\n", strings.Join(names, "|"))
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", sc.name, sc.blurb)
	}
	os.Exit(2)
}

// commonFlags holds the flags every subcommand shares.
type commonFlags struct {
	availsPath, rccsPath string
	gap                  float64
	trials               int
	seed                 int64
	workers              int
	// loadPath reuses a pipeline saved with -save instead of retraining;
	// savePath persists the trained pipeline for later runs.
	loadPath, savePath string
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.availsPath, "avails", "data/avails.csv", "avail table CSV")
	fs.StringVar(&c.rccsPath, "rccs", "data/rccs.csv", "RCC table CSV")
	fs.Float64Var(&c.gap, "gap", 10, "model gap interval x (percent of planned duration)")
	fs.IntVar(&c.trials, "trials", 30, "AutoHPT trials per timeline model (0 disables tuning)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.workers, "workers", 1, "concurrent per-timestamp model training")
	fs.StringVar(&c.loadPath, "load", "", "load a previously saved pipeline (skips training)")
	fs.StringVar(&c.savePath, "save", "", "save the trained pipeline to this path")
	return c
}

// parseFlags parses one sub-command's flags. The flag sets use
// flag.ExitOnError, so Parse only ever returns nil, but the error is
// handled anyway: silently dropping it would hide a future switch to
// ContinueOnError.
func parseFlags(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
}

func load(c *commonFlags) ([]domain.Avail, []domain.RCC) {
	af, err := os.Open(c.availsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer af.Close()
	avails, err := table.ReadAvails(af)
	if err != nil {
		log.Fatal(err)
	}
	rf, err := os.Open(c.rccsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	rccs, err := table.ReadRCCs(rf)
	if err != nil {
		log.Fatal(err)
	}
	return avails, rccs
}

func buildTensor(c *commonFlags, avails []domain.Avail, rccs []domain.RCC) (*features.Extractor, *features.Tensor, split.Splits) {
	byAvail := map[int][]domain.RCC{}
	for _, r := range rccs {
		byAvail[r.AvailID] = append(byAvail[r.AvailID], r)
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, avails, byAvail, c.gap, index.KindAVL)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		log.Fatal(err)
	}
	return ext, tensor, sp
}

func trainPipeline(c *commonFlags, tensor *features.Tensor, sp split.Splits) *core.Pipeline {
	if c.loadPath != "" {
		f, err := os.Open(c.loadPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		p, err := core.Load(f)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	cfg := core.DefaultConfig()
	cfg.HPTTrials = c.trials
	cfg.Seed = c.seed
	cfg.Workers = c.workers
	p, err := core.Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		log.Fatal(err)
	}
	if c.savePath != "" {
		f, err := os.Create(c.savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Save(f); err != nil {
			f.Close() //lint:ignore droppederr best-effort close; the Save failure is already fatal
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved pipeline to %s\n", c.savePath)
	}
	return p
}

func runQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	c := addCommon(fs)
	availID := fs.Int("avail", 0, "avail id to query")
	date := fs.String("date", "", "physical query date (YYYY-MM-DD)")
	parseFlags(fs, args)
	if *availID == 0 || *date == "" {
		log.Fatal("query requires -avail and -date")
	}
	at, err := domain.ParseDay(*date)
	if err != nil {
		log.Fatal(err)
	}
	avails, rccs := load(c)
	ext, tensor, sp := buildTensor(c, avails, rccs)
	p := trainPipeline(c, tensor, sp)
	svc := core.NewQueryService(p, ext, index.KindAVL)

	var target *domain.Avail
	for i := range avails {
		if avails[i].ID == *availID {
			target = &avails[i]
		}
	}
	if target == nil {
		log.Fatalf("avail %d not found", *availID)
	}
	var targetRCCs []domain.RCC
	for _, r := range rccs {
		if r.AvailID == *availID {
			targetRCCs = append(targetRCCs, r)
		}
	}
	res, err := svc.Query(target, targetRCCs, at)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DoMD query: avail %d at %s (t* = %.1f%% of planned duration)\n",
		res.AvailID, res.At, res.LogicalTime)
	fmt.Println("  t*(%)   raw est (days)   fused est (days)")
	for _, e := range res.Estimates {
		fmt.Printf("  %5.1f   %14.1f   %16.1f\n", e.Timestamp, e.Raw, e.Fused)
	}
	fmt.Printf("final estimated delay: %.1f days\n", res.Final())
	fmt.Println("top-5 contributing features:")
	for i, d := range res.TopDrivers {
		desc, err := features.Describe(d.Name)
		if err != nil {
			desc = d.Name
		}
		fmt.Printf("  %d. %-40s value=%.1f score=%.2f\n     %s\n", i+1, d.Name, d.Value, d.Score, desc)
	}
}

func runEvaluate(args []string) {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	c := addCommon(fs)
	parseFlags(fs, args)
	avails, rccs := load(c)
	_, tensor, sp := buildTensor(c, avails, rccs)
	p := trainPipeline(c, tensor, sp)
	reports, err := p.EvaluateRows(tensor, sp.Test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test-set quality (%d avails held out):\n", len(sp.Test))
	fmt.Println("  t*(%)   MAE80   MAE90  MAE100      MSE    RMSE     R2")
	for k, r := range reports {
		fmt.Printf("  %5.1f  %6.2f  %6.2f  %6.2f  %7.1f  %6.2f  %5.2f\n",
			p.Timestamps()[k], r.MAE80, r.MAE90, r.MAE, r.MSE, r.RMSE, r.R2)
	}
}

func runDesign(args []string) {
	fs := flag.NewFlagSet("design", flag.ExitOnError)
	c := addCommon(fs)
	quick := fs.Bool("quick", false, "use reduced grids for a fast design pass")
	parseFlags(fs, args)
	avails, rccs := load(c)
	_, tensor, sp := buildTensor(c, avails, rccs)

	opts := core.DesignOptions{Seed: c.seed}
	if *quick {
		opts.Ks = []int{20, 60}
		opts.TrialGrid = []int{10, 30}
		p := gbt.DefaultParams()
		p.NumRounds = 20
		p.LearningRate = 0.25
		opts.DesignGBT = &p
	}
	rep, err := core.Design(tensor, sp.Train, sp.Val, opts)
	if err != nil {
		log.Fatal(err)
	}
	printStage := func(name string, rs []core.StageResult) {
		fmt.Printf("%s:\n", name)
		for _, r := range rs {
			if r.K > 0 {
				fmt.Printf("  %-12s k=%-3d sum val MAE = %.2f\n", r.Option, r.K, r.SumValMAE)
			} else {
				fmt.Printf("  %-12s sum val MAE = %.2f\n", r.Option, r.SumValMAE)
			}
		}
	}
	printStage("Task 2: feature selection", rep.FeatureSelection)
	printStage("Task 3: base model", rep.BaseModel)
	printStage("Task 3: stacking", rep.Stacking)
	printStage("Task 4: loss", rep.Loss)
	printStage("Task 5: HPT trials", rep.HPTTrials)
	printStage("Task 6: fusion", rep.Fusion)
	fmt.Printf("selected pipeline: selector=%s k=%d family=%s stacked=%v loss=%s trials=%d fusion=%s\n",
		rep.Final.Selector, rep.Final.K, rep.Final.Family, rep.Final.Stacked,
		rep.Final.Loss, rep.Final.HPTTrials, rep.Final.Fusion)
}

// runTrain is the training half of the model-serving lifecycle: fit one
// pipeline + conformal calibration per logical-time window, stamp the
// artifacts with content digests, and publish them as a version into the
// model registry directory that `domd serve -model-dir` serves from.
func runTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	c := addCommon(fs)
	modelDir := fs.String("model-dir", "models", "model registry directory to publish the version into")
	windows := fs.String("windows", "0-50,50-100", "comma-separated logical-time windows lo-hi (percent of planned duration); one model is trained and conformal-calibrated per window")
	version := fs.String("version", "", "version name for the published artifacts (default: content-derived v<hash12>)")
	alpha := fs.Float64("alpha", modelserve.DefaultAlpha, "default conformal miscoverage level recorded for the version (0.1 = 90% bands)")
	activate := fs.Bool("activate", true, "point the manifest's active version at the new artifacts (false: stage for a later rollout)")
	parseFlags(fs, args)
	wins, err := modelserve.ParseWindows(*windows)
	if err != nil {
		log.Fatal(err)
	}
	if !(*alpha > 0 && *alpha < 1) { // NaN fails too
		log.Fatalf("-alpha %g outside (0,1)", *alpha)
	}
	avails, rccs := load(c)
	_, tensor, sp := buildTensor(c, avails, rccs)
	cfg := core.DefaultConfig()
	cfg.HPTTrials = c.trials
	cfg.Seed = c.seed
	cfg.Workers = c.workers
	tv, err := modelserve.TrainVersion(tensor, sp.Train, sp.Val, modelserve.TrainOptions{
		Windows: wins, Alpha: *alpha, Version: *version, Config: cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	name, err := tv.WriteTo(*modelDir, *activate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published model version %s to %s\n", name, *modelDir)
	for _, w := range tv.Windows() {
		fmt.Printf("  window %s trained on %d avails, calibrated on %d (alpha %g)\n",
			w, len(sp.Train), len(sp.Val), tv.Alpha)
	}
	if *activate {
		fmt.Printf("manifest active version: %s (running servers pick it up on POST /models/reload)\n", name)
	} else {
		fmt.Printf("version %s staged; edit %s/%s to activate\n", name, *modelDir, modelserve.ManifestName)
	}
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	c := addCommon(fs)
	addr := fs.String("addr", ":8080", "listen address")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "max duration for reading a request")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "max duration for writing a response")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "max keep-alive idle time per connection")
	shutdownTimeout := fs.Duration("shutdown-timeout", 15*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	fleetPar := fs.Int("fleet-parallel", server.DefaultFleetParallelism, "max avails one /fleet request queries concurrently")
	maxInFlight := fs.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently handled requests before shedding with 503 (-1 disables)")
	requestTimeout := fs.Duration("request-timeout", server.DefaultRequestTimeout, "per-request handling deadline (-1s disables)")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "max POST body size in bytes")
	walDir := fs.String("wal-dir", "data/wal", "root directory of the RCC ingestion WAL (topology.json plus one subdirectory per shard)")
	fsyncPolicy := fs.String("fsync", "always", "WAL fsync policy: always (fsync before every acknowledgment) or never")
	walCompactEvery := fs.Int("wal-compact-every", 1024, "ingests between WAL snapshots (0 disables auto-compaction)")
	shards := fs.Int("shards", 1, "partition the catalog into N consistent-hash shards, each with its own WAL subdirectory (topology is pinned on first open)")
	repl := fs.Int("repl", 1, "replicate each shard's WAL across N directories, acknowledging ingests at quorum (pinned on first open)")
	replQuorum := fs.Int("repl-quorum", 0, "replicas that must append before an ingest is acknowledged (0: majority of -repl)")
	replLagMax := fs.Int("repl-lag-max", wal.DefaultReplMaxLag, "records a replica may fall behind before it is failed out of async catch-up (revived by the next snapshot)")
	dedupCap := fs.Int("dedup-cap", statusq.DefaultDedupCap, "max idempotency keys tracked per catalog shard (negative: unbounded)")
	modelDir := fs.String("model-dir", "", "serve /predict and fleet predictions from the model registry in this directory (empty: prediction answers carry prediction_unavailable)")
	modelReload := fs.Duration("model-reload", 0, "poll the model registry and hot-swap new versions this often (0: swap only via POST /models/reload)")
	predictAlpha := fs.Float64("predict-alpha", 0, "conformal miscoverage level for served bands (0: the active model version's recorded default)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof profiles on this address (empty: disabled; keep it loopback-only)")
	quiet := fs.Bool("quiet", false, "disable per-request trace logging")
	// -h prints the endpoint table after the flags, from the same
	// server.Endpoints table the mux registers — so help, serving, and
	// docs/OPERATIONS.md cannot drift apart.
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: domd serve [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\n%s", server.UsageText())
	}
	parseFlags(fs, args)
	avails, rccs := load(c)
	ext, tensor, sp := buildTensor(c, avails, rccs)
	p := trainPipeline(c, tensor, sp)

	opts := server.Options{
		FleetParallelism: *fleetPar,
		MaxInFlight:      *maxInFlight,
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBody,
	}
	if !(*predictAlpha >= 0 && *predictAlpha < 1) { // NaN fails too
		log.Fatalf("-predict-alpha %g outside (0,1)", *predictAlpha)
	}
	// The model registry is optional and its failures are non-fatal: a
	// serving tier with a bad model directory still answers every read,
	// annotated prediction_unavailable, until a reload succeeds.
	var registry *modelserve.Registry
	if *modelDir != "" {
		reg, err := modelserve.Open(*modelDir)
		if err != nil {
			log.Printf("model registry %s: load failed, predictions unavailable until a reload succeeds: %v", *modelDir, err)
		} else if v := reg.ActiveVersion(); v != "" {
			log.Printf("model registry %s: serving version %s", *modelDir, v)
		} else {
			log.Printf("model registry %s: no active version yet (run `domd train`, then POST /models/reload)", *modelDir)
		}
		registry = reg
		opts.Models = reg
		opts.PredictAlpha = *predictAlpha
	}
	if *shards < 1 {
		log.Fatal("-shards must be at least 1")
	}
	if *repl < 1 {
		log.Fatal("-repl must be at least 1")
	}
	if *replQuorum < 0 || *replQuorum > *repl {
		log.Fatalf("-repl-quorum %d out of range [0, %d]", *replQuorum, *repl)
	}
	policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		log.Fatal(err)
	}
	// The catalog is always a sharded tier (one shard, one replica by
	// default): that is where the per-shard health ladder, circuit
	// breaker, and /readyz rows live, and server.New wires it as the
	// Ingester too.
	catalog, info, err := statusq.OpenSharded(*walDir, *shards, avails, rccs, index.KindAVL, statusq.DurableOptions{
		WAL:          wal.Options{Policy: policy},
		CompactEvery: *walCompactEvery,
		DedupCap:     *dedupCap,
		Replicas:     *repl,
		ReplQuorum:   *replQuorum,
		ReplMaxLag:   *replLagMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	tot := info.Totals()
	log.Printf("WAL restore from %s (%d shards): %d RCCs re-applied (%d duplicates, %d orphaned), %d log records",
		*walDir, catalog.ShardCount(), tot.Restored, tot.Duplicates, tot.Skipped, tot.Recovery.Records)
	for _, sh := range info.Shards {
		log.Printf("  shard %d (%s): %d avails, %d restored, snapshot seq %d, %d log records",
			sh.Shard, sh.Dir, sh.Avails, sh.Info.Restored, sh.Info.Recovery.SnapshotSeq, sh.Info.Recovery.Records)
		if sh.Info.Recovery.TornTail {
			log.Printf("  shard %d: torn tail repaired at offset %d (%d bytes dropped)",
				sh.Shard, sh.Info.Recovery.TornOffset, sh.Info.Recovery.TornBytes)
		}
		for _, rp := range sh.Info.Repl.Replicas {
			switch {
			case rp.Failed:
				log.Printf("  shard %d: replica %s failed to open or repair", sh.Shard, rp.Dir)
			case rp.Rebuilt:
				log.Printf("  shard %d: replica %s rebuilt from the authoritative replica", sh.Shard, rp.Dir)
			case rp.CaughtUp > 0:
				log.Printf("  shard %d: replica %s caught up %d records", sh.Shard, rp.Dir, rp.CaughtUp)
			}
		}
	}
	if !*quiet {
		opts.Logger = log.New(os.Stderr, "domd: ", log.LstdFlags)
	}
	// Profiling is opt-in and served on its own listener so the public
	// address never exposes pprof. The explicit mux registers exactly the
	// pprof handlers rather than inheriting http.DefaultServeMux.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pm}
		pprofErr := make(chan error, 1)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			pprofErr <- pprofSrv.ListenAndServe()
		}()
		defer func() {
			if err := pprofSrv.Close(); err != nil {
				log.Printf("pprof close: %v", err)
			}
			if err := <-pprofErr; err != nil && err != http.ErrServerClosed {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(p, ext, catalog, opts),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Graceful shutdown: first SIGINT/SIGTERM stops accepting and drains
	// in-flight requests for up to -shutdown-timeout, then force-closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Auto-reload: poll the registry manifest and hot-swap new versions
	// without an operator POST. Exits with the serve context.
	if registry != nil && *modelReload > 0 {
		go func() {
			t := time.NewTicker(*modelReload)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if rep, err := registry.Reload(); err != nil {
						log.Printf("model auto-reload: %v", err)
					} else if rep.Swapped {
						log.Printf("model auto-reload: now serving version %s", rep.Active)
					}
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop() // restore default signal handling: a second signal kills immediately
		log.Print("signal received; draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()

	fmt.Printf("serving DoMD API on %s (avails: %d, ongoing: %d, fleet parallelism: %d)\n",
		*addr, len(catalog.AvailIDs()), len(catalog.OngoingIDs()), *fleetPar)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := catalog.Close(); err != nil {
		log.Fatalf("close WAL: %v", err)
	}
	log.Print("server stopped cleanly")
}

func runBacktest(args []string) {
	fs := flag.NewFlagSet("backtest", flag.ExitOnError)
	c := addCommon(fs)
	folds := fs.Int("folds", 3, "number of walk-forward test blocks")
	minTrain := fs.Int("min-train", 30, "minimum training avails before the first cutoff")
	parseFlags(fs, args)
	avails, rccs := load(c)
	_, tensor, _ := buildTensor(c, avails, rccs)

	pipeCfg := core.DefaultConfig()
	pipeCfg.HPTTrials = c.trials
	pipeCfg.Seed = c.seed
	pipeCfg.Workers = c.workers
	btCfg := backtest.DefaultConfig()
	btCfg.Folds = *folds
	btCfg.MinTrain = *minTrain
	btCfg.Seed = c.seed

	results, err := backtest.Run(btCfg, pipeCfg, tensor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("walk-forward backtest:")
	for i, f := range results {
		last := f.Reports[len(f.Reports)-1]
		fmt.Printf("  fold %d: cutoff %s  train %3d  test %3d  @100%%: MAE80 %.1f MAE %.1f R2 %.2f\n",
			i+1, f.Cutoff, f.NumTrain, f.NumTest, last.MAE80, last.MAE, last.R2)
	}
	sum, err := backtest.Summarize(results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overall (all folds × timestamps): MAE80 %.1f  MAE %.1f  R2 %.2f\n", sum.MAE80, sum.MAE, sum.R2)
}

func runImportances(args []string) {
	fs := flag.NewFlagSet("importances", flag.ExitOnError)
	c := addCommon(fs)
	topN := fs.Int("top", 15, "number of features to print")
	parseFlags(fs, args)
	avails, rccs := load(c)
	_, tensor, sp := buildTensor(c, avails, rccs)
	p := trainPipeline(c, tensor, sp)

	imp := p.GlobalImportances()
	type row struct {
		name  string
		share float64
	}
	rows := make([]row, 0, len(imp))
	for name, share := range imp {
		rows = append(rows, row{name, share})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	if *topN > len(rows) {
		*topN = len(rows)
	}
	fmt.Printf("global delay drivers (share of total model gain, top %d):\n", *topN)
	for _, r := range rows[:*topN] {
		desc, err := features.Describe(r.name)
		if err != nil {
			desc = r.name
		}
		fmt.Printf("  %5.1f%%  %-40s %s\n", r.share*100, r.name, desc)
	}
}

func runDrift(args []string) {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	c := addCommon(fs)
	liveAvails := fs.String("live-avails", "", "live avail table CSV")
	liveRCCs := fs.String("live-rccs", "", "live RCC table CSV")
	tstar := fs.Float64("tstar", 50, "logical time at which to compare feature distributions")
	topN := fs.Int("top", 10, "number of drifting features to print")
	parseFlags(fs, args)
	if *liveAvails == "" || *liveRCCs == "" {
		log.Fatal("drift requires -live-avails and -live-rccs")
	}

	ext := features.NewExtractor()
	matrix := func(availsPath, rccsPath string) [][]float64 {
		cc := *c
		cc.availsPath, cc.rccsPath = availsPath, rccsPath
		avails, rccs := load(&cc)
		byAvail := map[int][]domain.RCC{}
		for _, r := range rccs {
			byAvail[r.AvailID] = append(byAvail[r.AvailID], r)
		}
		var X [][]float64
		for i := range avails {
			a := &avails[i]
			eng, err := statusq.NewEngine(a, byAvail[a.ID], index.KindAVL)
			if err != nil {
				log.Fatal(err)
			}
			vec, err := ext.Vector(eng, *tstar)
			if err != nil {
				log.Fatal(err)
			}
			X = append(X, vec)
		}
		return X
	}

	det, err := drift.NewDetector(drift.Config{}, matrix(c.availsPath, c.rccsPath), ext.Names())
	if err != nil {
		log.Fatal(err)
	}
	reports, err := det.Check(matrix(*liveAvails, *liveRCCs))
	if err != nil {
		log.Fatal(err)
	}
	severe := 0
	for _, r := range reports {
		if r.Severity == drift.Severe {
			severe++
		}
	}
	fmt.Printf("feature drift at t*=%.0f%%: %d severe of %d features\n", *tstar, severe, len(reports))
	if *topN > len(reports) {
		*topN = len(reports)
	}
	for _, r := range reports[:*topN] {
		fmt.Printf("  PSI %5.2f (excess %5.2f, %-8s) %s\n", r.PSI, r.Excess, r.Severity, r.Name)
	}
}
