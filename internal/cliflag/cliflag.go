// Package cliflag holds the flag rules gossipsim and experiments share word
// for word — the -workers grammar and the -metrics-addr check — so both
// commands' validate steps, and their error texts, come from one copy.
// (The shared -cpuprofile / -memprofile pair is package profile.)
package cliflag

import (
	"fmt"
	"net"
	"strconv"
)

// ValidateMetricsAddr checks a -metrics-addr value: empty disables the
// endpoint, anything else must be host:port with a port in 1-65535. Pure,
// so table-driven tests can drive it without binding sockets.
func ValidateMetricsAddr(addr string) error {
	if addr == "" {
		return nil
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-metrics-addr must be host:port (got %q)", addr)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 1 || p > 65535 {
		return fmt.Errorf("-metrics-addr port must be an integer in 1-65535 (got %q)", port)
	}
	return nil
}

// WorkerCount resolves a raw -workers value to its sim.Config.Workers
// value: an integer >= -1, where 0 acts all nodes as one shard and every
// other value uses the fixed 32-node shards. -1 (once GOMAXPROCS) and
// every k >= 1 run the same inline schedule, so -1 resolves to 1. "auto" named the retired
// autoscaler and is an error.
func WorkerCount(workers string) (int, error) {
	if workers == "auto" {
		return 0, fmt.Errorf("-workers auto is gone: every sharded run acts inline, so use -workers 1")
	}
	n, err := strconv.Atoi(workers)
	if err != nil {
		return 0, fmt.Errorf("-workers must be an integer (got %q)", workers)
	}
	if n < -1 {
		return 0, fmt.Errorf("-workers must be >= -1 (0 = sequential engine, >= 1 or -1 = sharded; got %d)", n)
	}
	if n == -1 {
		n = 1
	}
	return n, nil
}
