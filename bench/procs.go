package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test runs as real child processes built from the
// checked-out tree: bench/.build/bin/cubelsi and cubelsiserve.

type binaries struct{ cubelsi, serve string }

// repoRoot finds the tree the benchmark measures: the bench directory's
// parent (go run -C bench and go test both start in bench/).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "cubelsiserve")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: no cmd/cubelsiserve in %s or its parent; run from the repository (go run -C bench repro/bench)", wd)
}

// buildBinaries compiles the two commands into buildDir/bin. Untimed.
func buildBinaries(ctx context.Context, root, buildDir string) (binaries, error) {
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/cubelsi", "./cmd/cubelsiserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	return binaries{cubelsi: filepath.Join(bin, "cubelsi"), serve: filepath.Join(bin, "cubelsiserve")}, nil
}

// runChild runs a command to completion and returns its wall time and
// peak resident set in MB (ru_maxrss is in KB on Linux).
func runChild(ctx context.Context, bin string, args ...string) (wall time.Duration, peakRSSMB float64, err error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: %s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return wall, peakRSSMB, nil
}

// server is one running cubelsiserve child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	log    *os.File
	// ready is the time from exec to the first 200 on /readyz.
	ready time.Duration
}

// startServer launches cubelsiserve on a free loopback port and waits
// for /readyz. The server's stderr goes to logPath.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // the child binds it a moment later; nothing else on this host races for it

	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, exited: make(chan struct{}), log: log}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing stop() needs
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			out, _ := os.ReadFile(logPath)
			log.Close()
			return nil, fmt.Errorf("bench: cubelsiserve %s exited before ready:\n%s", strings.Join(args, " "), out)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop interrupts the server and waits until the process has ended,
// killing it if a graceful shutdown takes more than 10 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt) // already-exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// rssMB reads VmRSS of the server from /proc/<pid>/status.
func (s *server) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("bench: no VmRSS in /proc status")
}

// cpuSeconds reads the server's consumed CPU time (utime+stime) from
// /proc/<pid>/stat, assuming the universal USER_HZ of 100.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces;
	// fields 14 and 15 are counted from after its closing parenthesis.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("bench: short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}
