// Package cliflag holds the flag rules gossipsim and experiments share word
// for word — the -metrics-addr check — so both commands' validate steps,
// and their error texts, come from one copy. (The shared -cpuprofile /
// -memprofile pair is package profile.)
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
