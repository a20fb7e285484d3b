// Package httpx holds the small HTTP conventions every CubeLSI service
// shares: the JSON {"error": ...} envelope, the request-body error
// mapping (413 for oversized bodies, 400 otherwise), and a ServeMux
// wrapper that keeps unmatched requests inside the same envelope — JSON
// 404 for unknown paths and JSON 405 with an Allow header when the path
// exists under another method — instead of the mux's plain-text bodies.
//
// cmd/cubelsiserve (the query/serving API) dispatches through it, so
// its clients parse exactly one error shape.
package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// WriteJSON writes v as a JSON response with the given status code.
// Encoding errors are ignored: the status line is already on the wire,
// and a half-written body is all a broken connection leaves room for.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the shared {"error": ...} envelope with the given
// status code.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteBodyError maps request-body decode failures onto the error
// envelope: 413 for bodies that tripped http.MaxBytesReader, 400 for
// everything else.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// Mux wraps an http.ServeMux registered with method-qualified patterns
// ("GET /healthz") and keeps its unmatched responses inside the JSON
// error envelope. The zero value is not usable; call NewMux.
type Mux struct {
	mux *http.ServeMux
	// probeMethods are the methods tried when classifying an unmatched
	// request as 405-with-Allow vs 404.
	probeMethods []string
}

// NewMux returns an empty Mux. probeMethods lists the methods the
// 405-classification probes for; empty means GET and POST, which covers
// every CubeLSI endpoint today.
func NewMux(probeMethods ...string) *Mux {
	if len(probeMethods) == 0 {
		probeMethods = []string{http.MethodGet, http.MethodPost}
	}
	return &Mux{mux: http.NewServeMux(), probeMethods: probeMethods}
}

// HandleFunc registers a handler for the given method-qualified pattern.
func (m *Mux) HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request)) {
	m.mux.HandleFunc(pattern, handler)
}

// Handle registers a handler for the given method-qualified pattern.
func (m *Mux) Handle(pattern string, handler http.Handler) {
	m.mux.Handle(pattern, handler)
}

// ServeHTTP dispatches through the underlying mux but replaces its
// plain-text 404/405 bodies with the JSON envelope, setting the Allow
// header on 405s.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := m.mux.Handler(r); pattern == "" {
		if allowed := m.AllowedMethods(r.URL.Path); len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed for %s", r.Method, r.URL.Path)
			return
		}
		WriteError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
		return
	}
	m.mux.ServeHTTP(w, r)
}

// AllowedMethods probes which of the configured methods the mux would
// accept for a path, so an unmatched request can be classified
// 405-with-Allow vs 404.
func (m *Mux) AllowedMethods(path string) []string {
	var out []string
	for _, method := range m.probeMethods {
		probe, err := http.NewRequest(method, path, nil)
		if err != nil {
			continue
		}
		if _, pattern := m.mux.Handler(probe); pattern != "" {
			out = append(out, method)
		}
	}
	return out
}
