package main

import (
	"math"
	"strings"
	"testing"

	"gossipdisc/internal/profile"
)

// good returns a fully valid option set; cases mutate one field at a time.
func good() options {
	return options{scale: 1, trialsParallel: 0}
}

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // empty = must pass
	}{
		{"defaults", func(o *options) {}, ""},
		{"scale truncates", func(o *options) { o.scale = 0.25 }, ""},
		{"trials override", func(o *options) { o.trials = 3 }, ""},
		{"trials parallel sequential", func(o *options) { o.trialsParallel = 1 }, ""},
		{"rates default", func(o *options) { o.rates = "2" }, ""},
		{"rates classes", func(o *options) { o.rates = "0.5,fast=8:0-15,park=0:16" }, ""},
		{"roles default only", func(o *options) { o.roles = "silent" }, ""},
		{"roles quantified", func(o *options) { o.roles = "honest,byzantine=5%,selfish=10:0-47" }, ""},
		{"roles eavesdroppers", func(o *options) { o.roles = "eavesdropper=8" }, ""},
		{"metrics addr host:port", func(o *options) { o.metricsAddr = "localhost:9090" }, ""},
		{"metrics addr bare port", func(o *options) { o.metricsAddr = ":8080" }, ""},
		{"profiles to two files", func(o *options) { o.profile = profile.Flags{CPU: "cpu.prof", Mem: "mem.prof"} }, ""},

		{"scale zero", func(o *options) { o.scale = 0 }, "-scale"},
		{"scale negative", func(o *options) { o.scale = -2 }, "-scale"},
		{"scale above one", func(o *options) { o.scale = 5 }, "-scale"},
		{"scale NaN", func(o *options) { o.scale = math.NaN() }, "-scale"},
		{"scale +Inf", func(o *options) { o.scale = math.Inf(1) }, "-scale"},
		{"negative trials", func(o *options) { o.trials = -2 }, "-trials must"},
		{"profiles to one file", func(o *options) { o.profile = profile.Flags{CPU: "p.prof", Mem: "p.prof"} }, "-memprofile"},
		{"negative trials parallel", func(o *options) { o.trialsParallel = -1 }, "-trials-parallel"},
		{"malformed rates", func(o *options) { o.rates = "fast=oops:0-3" }, "-rates"},
		{"negative rate", func(o *options) { o.rates = "-1" }, "-rates"},
		{"two default rates", func(o *options) { o.rates = "1,2" }, "-rates"},
		{"roles unknown role", func(o *options) { o.roles = "wizard=2" }, "-roles"},
		{"roles duplicate", func(o *options) { o.roles = "byzantine=1,byzantine=2" }, "-roles"},
		{"roles two defaults", func(o *options) { o.roles = "honest,silent" }, "-roles"},
		{"roles bad percent", func(o *options) { o.roles = "byzantine=150%" }, "-roles"},
		{"roles bad range", func(o *options) { o.roles = "byzantine=1:9-2" }, "-roles"},
		{"metrics addr no port", func(o *options) { o.metricsAddr = "localhost" }, "-metrics-addr"},
		{"metrics addr port zero", func(o *options) { o.metricsAddr = ":0" }, "-metrics-addr port"},
		{"metrics addr port too big", func(o *options) { o.metricsAddr = ":65536" }, "-metrics-addr port"},
		{"metrics addr named port", func(o *options) { o.metricsAddr = ":grpc" }, "-metrics-addr port"},
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
