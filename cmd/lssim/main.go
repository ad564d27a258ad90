// Command lssim runs a single log-structured-store cleaning simulation: one
// algorithm, one workload, one fill factor, and prints the measured write
// amplification and emptiness at cleaning.
//
// Examples:
//
//	lssim -alg MDC -dist zipf:0.99 -fill 0.8
//	lssim -alg greedy -dist hotcold:0.8 -fill 0.9 -scale medium
//	lssim -alg MDC-opt -dist uniform -fill 0.8 -mult 50
//	lssim -alg multi-log -trace tpcc.trace -fill 0.7
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lssim: ")

	algName := flag.String("alg", "MDC", "cleaning algorithm: "+strings.Join(core.Names(), ", "))
	dist := flag.String("dist", "zipf:0.99", "workload: uniform | zipf:<theta> | hotcold:<m> | shifting")
	traceFile := flag.String("trace", "", "replay a trace file instead of a synthetic workload")
	fill := flag.Float64("fill", 0.8, "fill factor F")
	scaleName := flag.String("scale", "medium", "geometry preset: small, medium, paper")
	buffer := flag.Int("buffer", -1, "write buffer segments (-1 = preset default)")
	mult := flag.Float64("mult", 0, "updates as a multiple of the page count (0 = preset default)")
	seed := flag.Int64("seed", experiments.Seed, "workload seed")
	verbose := flag.Bool("v", false, "print full counters")
	flag.Parse()

	alg, err := core.ByName(*algName)
	if err != nil {
		log.Fatal(err)
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := scale.SimConfig(*fill)
	if *buffer >= 0 {
		cfg.WriteBufferSegs = *buffer
	}
	opts := scale.Updates()
	if *mult > 0 {
		opts.UpdateMultiple = *mult
	}

	var gen workload.Generator
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// Capacity derives from the trace universe at the requested fill.
		cfg.NumSegments = int(float64(tr.Universe)/(*fill*float64(cfg.SegmentPages))) + 1
		cfg.FillFactor = float64(tr.Universe) / float64(cfg.NumSegments*cfg.SegmentPages)
		gen = workload.NewReplay("trace", tr.Writes, tr.Universe, tr.Preload, alg.Exact)
	} else if gen, err = parseDist(*dist, cfg.UserPages(), *seed); err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	res, err := sim.Run(cfg, alg, gen, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("algorithm      %s\n", res.Algorithm)
	fmt.Printf("workload       %s\n", res.Workload)
	fmt.Printf("fill factor    %.3f\n", res.Fill)
	fmt.Printf("Wamp           %.4f\n", res.Wamp)
	fmt.Printf("Wamp physical  %.4f\n", res.WampPhysical)
	fmt.Printf("E at cleaning  %.4f  (cost 2/E = %.2f)\n", res.MeanEAtClean, res.CostSeg)
	if *verbose {
		fmt.Printf("updates        %d (absorbed %d)\n", res.LogicalUpdates, res.AbsorbedUpdates)
		fmt.Printf("page writes    user %d, GC %d\n", res.UserPageWrites, res.GCPageWrites)
		fmt.Printf("cleaning       %d segments in %d cycles\n", res.SegmentsCleaned, res.CleanCycles)
		fmt.Printf("geometry       %d segments x %d pages, buffer %d segs, reserve %d, batch %d\n",
			cfg.NumSegments, cfg.SegmentPages, cfg.WriteBufferSegs, cfg.FreeLowWater, cfg.CleanBatch)
	}
}

// parseDist builds the synthetic workload named by a -dist value. An
// unknown name or an out-of-range parameter is an error, never a panic in
// the workload constructors.
func parseDist(dist string, pages int, seed int64) (workload.Generator, error) {
	name, arg, hasArg := strings.Cut(dist, ":")
	param := func(def float64) (float64, error) {
		if !hasArg {
			return def, nil
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("bad %s parameter %q", name, arg)
		}
		return v, nil
	}
	switch name {
	case "uniform":
		return workload.NewUniform(pages, seed), nil
	case "zipf":
		theta, err := param(0.99)
		if err != nil {
			return nil, err
		}
		if theta <= 0 {
			return nil, fmt.Errorf("zipf theta %v out of range (want > 0)", theta)
		}
		return workload.NewZipf(pages, theta, seed), nil
	case "hotcold":
		m, err := param(0.8)
		if err != nil {
			return nil, err
		}
		if m <= 0 || m >= 1 {
			return nil, fmt.Errorf("hotcold skew %v out of range (want the update fraction m in (0, 1), e.g. hotcold:0.9)", m)
		}
		return workload.NewSkew(pages, m, seed), nil
	case "shifting":
		return workload.NewShifting(pages, 0.1, 0.9, uint64(pages/100+1), seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (uniform, zipf:<theta>, hotcold:<m>, shifting)", dist)
	}
}
