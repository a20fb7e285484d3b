package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed loop's width: two keep-alive connections
// from this one generator process — never more than the build VM's two
// vCPUs, which the server shares. Callers of a search service wait for
// their reply, so closed is the honest model.
const numClients = 2

// conn is a minimal keep-alive HTTP/1.1 client over one TCP connection.
// The generator shares two vCPUs with the server it measures, so it
// writes pre-serialized requests and parses only what it needs of the
// reply (status, Content-Length or chunked framing). Measured against
// net/http (one Transport per client capped at one connection, requests
// built without URL parsing, bodies read into a reused buffer; eight
// alternating pairs on deep_core, README.md "The load generator's
// client"): net/http's per-request goroutine hops and header maps add
// ≈ 65 µs to every request — search_p50_ms 0.115 → 0.182, related_p50_ms
// 0.066 → 0.133, read_rps −23 % — which is more than the whole of a
// related-tag request and beyond every bound. The untimed
// /readyz, /stats and /stream calls use net/http.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused; valid until the next roundTrip
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// roundTrip writes one request and reads one response, returning the
// status code and the body (owned by c).
func (c *conn) roundTrip(wire []byte, deadline time.Duration) (status int, body []byte, err error) {
	if err := c.c.SetDeadline(time.Now().Add(deadline)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bench: bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("bench: bad status line %q", line)
	}
	if status < 200 {
		// cubelsiserve sends no interim responses (no Expect: 100-continue
		// goes out); one would shift this connection's framing.
		return 0, nil, fmt.Errorf("bench: unexpected interim response %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bench: bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseUint(string(size), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("bench: bad chunk size %q", line)
			}
			if n == 0 {
				break
			}
			if err := c.readBody(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
				return 0, nil, err
			}
		}
		for { // trailers, then the final blank line
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("bench: response with neither Content-Length nor chunked framing")
	}
	return status, c.body, nil
}

func (c *conn) readBody(n int) error {
	at := len(c.body)
	c.body = slices.Grow(c.body, n)[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// readResult is what the read phase measured.
type readResult struct {
	windows   []windowStats
	attempted int // requests sent, warm-up included
	failed    int // transport errors + non-200 + bodies differing from the oracle's
	respBytes int64
	disturbed bool
	firstErr  error
}

// readPhase drives the closed loop against addr: a warm-up, then
// fixed-length windows until the ledger has its quiet ones (or gives
// up). Every reply is compared byte for byte with the body the oracle
// verified for that request.
func readPhase(srv *server, in *inputs, g *gate, warmup, windowLen time.Duration, ledger *windowLedger) (*readResult, error) {
	type clientOut struct {
		samples   []sample
		attempted int
		failed    int
		respBytes int64
		firstErr  error
	}
	conns := make([]*conn, numClients)
	for i := range conns {
		c, err := dial(srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}

	var stop atomic.Bool
	outs := make([]clientOut, numClients)
	epoch := time.Now()
	var wg sync.WaitGroup
	for i := range numClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[i]
			out.samples = make([]sample, 0, 1<<18)
			stream := in.stream(i)
			for !stop.Load() {
				req := stream.next()
				start := time.Now()
				status, body, err := conns[i].roundTrip(req.wire, 30*time.Second)
				end := time.Now()
				out.attempted++
				switch {
				case err != nil:
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
					return // the connection's framing is lost; the run has failed anyway
				case status != 200 || !bytes.Equal(body, req.want):
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("bench: %s answered %d with a body differing from the oracle's", classNames[req.class], status)
					}
				}
				out.respBytes += int64(len(body))
				out.samples = append(out.samples, sample{done: end.Sub(epoch), lat: end.Sub(start), class: req.class})
			}
		}()
	}

	time.Sleep(warmup)
	type mark struct {
		at    time.Duration
		cpu   cpuTimes
		quiet bool
		steal float64
		rssMB float64 // the server's VmRSS at the window's end; 0 when unreadable
	}
	marks := []mark{{at: time.Since(epoch), cpu: g.sample()}}
	for done := false; !done; {
		time.Sleep(windowLen)
		m := mark{at: time.Since(epoch), cpu: g.sample()}
		m.rssMB, _ = srv.rssMB() // a dead server fails the run through its clients
		m.steal, m.quiet = g.judge(marks[len(marks)-1].cpu, m.cpu)
		if !m.quiet {
			g.discarded++
		}
		marks = append(marks, m)
		done = ledger.record(m.quiet)
	}
	stop.Store(true)
	wg.Wait()

	res := &readResult{disturbed: ledger.disturbed()}
	var all []sample
	for _, out := range outs {
		all = append(all, out.samples...)
		res.attempted += out.attempted
		res.failed += out.failed
		res.respBytes += out.respBytes
		if res.firstErr == nil {
			res.firstErr = out.firstErr
		}
	}
	bounds := make([]time.Duration, len(marks))
	for i, m := range marks {
		bounds[i] = m.at
	}
	res.windows = summarize(all, bounds)
	for i := range res.windows {
		res.windows[i].quiet, res.windows[i].steal, res.windows[i].rssMB = marks[i+1].quiet, marks[i+1].steal, marks[i+1].rssMB
	}
	return res, nil
}
