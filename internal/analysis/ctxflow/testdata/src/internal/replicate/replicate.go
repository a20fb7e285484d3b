// Package replicate (under a targeted import-path suffix) threads
// contexts the way ctxflow demands.
package replicate

import (
	"context"
	"net/http"
	"os"
)

// FetchCtx accepts the caller's context and threads it into the
// request.
func FetchCtx(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// SpawnCtx spawns, but the goroutine's lifetime is bound to ctx.
func SpawnCtx(ctx context.Context, work func(context.Context)) {
	go work(ctx)
}

// Handle is an HTTP handler: the request carries the caller context.
func Handle(w http.ResponseWriter, r *http.Request) {
	go audit(r.Context())
	w.WriteHeader(http.StatusOK)
}

// Derived contexts from a caller context are fine.
func WithDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// unexported helpers may do I/O without a context parameter.
func slurp(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func audit(ctx context.Context) {
	<-ctx.Done()
}
