package export

import (
	"context"
	"net"
	"net/http"
)

// Serve listens on addr and serves h in the background. It returns the
// bound address and a stop func that closes the listener, waits for the
// requests in flight to finish and for the server goroutine to return.
func Serve(addr string, h http.Handler) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Serve returns ErrServerClosed once stop has run; a failure before
		// that ends the endpoint only, never the run it reports on.
		_ = srv.Serve(ln)
	}()
	return ln.Addr(), func() {
		// Shutdown's only error is its context's, and Background has none.
		_ = srv.Shutdown(context.Background())
		<-done
	}, nil
}
