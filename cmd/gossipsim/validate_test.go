package main

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"gossipdisc/internal/profile"
)

// good returns a fully valid option set; cases mutate one field at a time.
func good() options {
	return options{
		process: "push", family: "cycle", dfamily: "strong-random", mode: "sync",
		n: 64, trials: 1, seed: 1, rounds: 0, traceAt: 0, fail: 0, dense: 0,
		backend: "dense",
	}
}

type validateCase struct {
	name    string
	mutate  func(*options)
	wantErr string // empty = must pass
}

func TestValidateOptions(t *testing.T) {
	cases := []validateCase{
		{"defaults", func(o *options) {}, ""},
		{"directed sync", func(o *options) { o.process = "directed" }, ""},
		{"async undirected", func(o *options) { o.mode = "async" }, ""},
		{"dense fraction", func(o *options) { o.dense = 0.25 }, ""},
		{"dense full", func(o *options) { o.dense = 1 }, ""},
		{"fail probability", func(o *options) { o.fail = 0.5 }, ""},
		{"n of one", func(o *options) { o.n = 1 }, ""},
		{"backend sparse", func(o *options) { o.backend = "sparse" }, ""},
		{"backend auto", func(o *options) { o.backend = "auto" }, ""},
		{"profiles to two files", func(o *options) { o.profile = profile.Flags{CPU: "cpu.prof", Mem: "mem.prof"} }, ""},

		{"profiles to one file", func(o *options) { o.profile = profile.Flags{CPU: "p.prof", Mem: "p.prof"} }, "-memprofile"},
		{"unknown process", func(o *options) { o.process = "teleport" }, "-process"},
		{"unknown backend", func(o *options) { o.backend = "hologram" }, "-backend"},
		{"empty backend", func(o *options) { o.backend = "" }, "-backend"},
		{"unknown mode", func(o *options) { o.mode = "turbo" }, "-mode"},
		{"directed async", func(o *options) { o.process = "directed"; o.mode = "async" }, "async"},
		{"zero n", func(o *options) { o.n = 0 }, "-n"},
		{"negative n", func(o *options) { o.n = -5 }, "-n"},
		{"zero trials", func(o *options) { o.trials = 0 }, "-trials"},
		{"negative trials", func(o *options) { o.trials = -1 }, "-trials"},
		{"negative rounds", func(o *options) { o.rounds = -1 }, "-rounds"},
		{"negative trace", func(o *options) { o.traceAt = -3 }, "-trace"},
		{"trace on eager", func(o *options) { o.mode = "eager"; o.traceAt = 5 }, ""},
		{"trace on async", func(o *options) { o.mode = "async"; o.traceAt = 5 }, "-trace cannot be combined with -mode async"},
		{"trace on directed", func(o *options) { o.process = "directed"; o.traceAt = 5 }, "-trace cannot be combined with -process directed"},
		{"fail above one", func(o *options) { o.fail = 1.5 }, "-fail"},
		{"fail NaN", func(o *options) { o.fail = math.NaN() }, "-fail"},
		{"negative fail", func(o *options) { o.fail = -0.1 }, "-fail"},
		{"dense above one", func(o *options) { o.dense = 1.01 }, "-dense"},
		{"dense NaN", func(o *options) { o.dense = math.NaN() }, "-dense"},
		{"negative dense", func(o *options) { o.dense = -0.5 }, "-dense"},
		{"dense with fail", func(o *options) { o.dense = 0.3; o.fail = 0.4 }, "-dense"},

		{"event with uniform rates", func(o *options) { o.mode = "async"; o.rates = "2" }, ""},
		{"event with class rates", func(o *options) {
			o.mode = "async"
			o.rates = "0.5,fast=8:0-15,park=0:16"
		}, ""},
		{"event without async", func(o *options) { o.rates = "2" }, "-rates requires -mode async"},
		{"event with eager", func(o *options) { o.mode = "eager"; o.rates = "2" }, "-rates requires -mode async"},
		{"malformed rates", func(o *options) { o.mode = "async"; o.rates = "fast=oops:0-3" }, "-rates"},
		{"negative rate", func(o *options) { o.mode = "async"; o.rates = "-2" }, "-rates"},
		{"two default rates", func(o *options) { o.mode = "async"; o.rates = "1,2" }, "-rates"},

		{"scenario push", func(o *options) { o.scenario = "chaos.json" }, ""},
		{"scenario pull", func(o *options) { o.scenario = "chaos.json"; o.process = "pull" }, ""},
		{"scenario with rounds budget", func(o *options) { o.scenario = "chaos.json"; o.rounds = 50 }, ""},
		{"scenario directed", func(o *options) { o.scenario = "chaos.json"; o.process = "directed" }, "-scenario"},
		{"scenario push-pull", func(o *options) { o.scenario = "chaos.json"; o.process = "push-pull" }, "-scenario"},
		{"scenario async", func(o *options) { o.scenario = "chaos.json"; o.mode = "async" }, "-mode sync"},
		{"scenario eager", func(o *options) { o.scenario = "chaos.json"; o.mode = "eager" }, "-mode sync"},
		{"scenario with dense", func(o *options) { o.scenario = "chaos.json"; o.dense = 0.2 }, "-dense"},
		{"scenario with fail", func(o *options) { o.scenario = "chaos.json"; o.fail = 0.1 }, "-fail"},
		{"scenario with trace", func(o *options) { o.scenario = "chaos.json"; o.traceAt = 5 }, "-trace"},

		{"metrics addr host:port", func(o *options) { o.metricsAddr = "localhost:9090" }, ""},
		{"metrics addr bare port", func(o *options) { o.metricsAddr = ":8080" }, ""},
		{"metrics addr max port", func(o *options) { o.metricsAddr = ":65535" }, ""},
		{"metrics addr with scenario", func(o *options) { o.metricsAddr = ":9090"; o.scenario = "chaos.json" }, ""},
		{"metrics addr no port", func(o *options) { o.metricsAddr = "localhost" }, "-metrics-addr"},
		{"metrics addr port zero", func(o *options) { o.metricsAddr = ":0" }, "-metrics-addr port"},
		{"metrics addr port too big", func(o *options) { o.metricsAddr = ":65536" }, "-metrics-addr port"},
		{"metrics addr named port", func(o *options) { o.metricsAddr = ":http" }, "-metrics-addr port"},
		{"metrics addr negative port", func(o *options) { o.metricsAddr = "localhost:-1" }, "-metrics-addr"},

		{"snapshot none", func(o *options) { o.snapshot = "none" }, ""},
		{"snapshot empty", func(o *options) { o.snapshot = "" }, ""},
		{"snapshot dot", func(o *options) { o.snapshot = "dot" }, ""},
		{"snapshot mermaid", func(o *options) { o.snapshot = "mermaid" }, ""},
		{"snapshot mermaid async", func(o *options) { o.snapshot = "mermaid"; o.mode = "async" }, ""},
		{"snapshot unknown", func(o *options) { o.snapshot = "svg" }, "-snapshot"},
		{"snapshot directed", func(o *options) { o.snapshot = "dot"; o.process = "directed" }, "-snapshot"},
		{"snapshot with scenario", func(o *options) { o.snapshot = "dot"; o.scenario = "chaos.json" }, "-snapshot"},

		{"roles default only", func(o *options) { o.roles = "silent" }, ""},
		{"roles quantified", func(o *options) { o.roles = "honest,byzantine=5%,selfish=10:0-99" }, ""},
		{"roles eavesdroppers", func(o *options) { o.roles = "eavesdropper=8" }, ""},
		{"roles with fail", func(o *options) { o.roles = "byzantine=2"; o.fail = 0.1 }, ""},
		{"roles on directed", func(o *options) { o.roles = "byzantine=2"; o.process = "directed" }, ""},
		{"roles on event runtime", func(o *options) {
			o.roles = "byzantine=2"
			o.mode = "async"
			o.rates = "1"
		}, ""},
		{"roles unknown role", func(o *options) { o.roles = "wizard=2" }, "-roles"},
		{"roles duplicate", func(o *options) { o.roles = "byzantine=1,byzantine=2" }, "-roles"},
		{"roles two defaults", func(o *options) { o.roles = "honest,silent" }, "-roles"},
		{"roles bad percent", func(o *options) { o.roles = "byzantine=150%" }, "-roles"},
		{"roles bad range", func(o *options) { o.roles = "byzantine=1:9-2" }, "-roles"},
		{"roles with dense", func(o *options) { o.roles = "byzantine=2"; o.dense = 0.2 }, "-dense"},
		{"roles with scenario", func(o *options) { o.roles = "byzantine=2"; o.scenario = "chaos.json" }, "-scenario"},
	}
	if strconv.IntSize == 64 { // a 32-bit int cannot exceed math.MaxInt32
		cases = append(cases, validateCase{"n above MaxInt32", func(o *options) {
			o.n = math.MaxInt32
			o.n++
		}, "-n must be in"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := good()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
