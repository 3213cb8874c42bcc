package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro"
)

// server is one cubelsiserve child process listening on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string
	log     *os.File
	logPath string
	exited  chan struct{} // closed once Wait returns
	err     error         // Wait's error, valid after exited closes
	client  *http.Client
	stopped bool
}

// startServer launches bin with args plus a free loopback -addr and
// waits until GET /readyz answers 200. Its stderr goes to logPath.
func startServer(ctx context.Context, bin, logPath string, conns int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cubelsiserve: %w", err)
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, log: logf, logPath: logPath, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: conns + 2, MaxIdleConnsPerHost: conns + 2, IdleConnTimeout: time.Minute,
		}},
	}
	go func() { s.err = cmd.Wait(); close(s.exited) }()

	deadline := time.Now().Add(150 * time.Second)
	for {
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("cubelsiserve exited before ready (%v): %s", s.err, tail(logPath))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if resp, err := s.client.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cubelsiserve not ready after 150s: %s", tail(logPath))
		}
	}
}

// stop interrupts the server, waits for it to exit (killing it after 30
// s) and returns the CPU time it used. Stopping it again returns zero.
func (s *server) stop() (time.Duration, error) {
	if s.stopped {
		return 0, nil
	}
	s.stopped = true
	s.client.CloseIdleConnections()
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.log.Close()
	st := s.cmd.ProcessState
	if st == nil {
		return 0, errors.New("cubelsiserve: no process state")
	}
	cpu := st.UserTime() + st.SystemTime()
	if !st.Success() {
		return cpu, fmt.Errorf("cubelsiserve exit: %v", s.err)
	}
	return cpu, nil
}

// stopServer stops srv and adds the CPU time it used to the run's.
func (b *bench) stopServer(srv *server) error {
	cpu, err := srv.stop()
	b.serverCPU += cpu
	return err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, " | ")
}

// getJSON fetches path and decodes a 200 answer into v.
func (s *server) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	return s.do(req, v)
}

// post sends body as ctype and decodes a 200 answer into v.
func (s *server) post(ctx context.Context, path, ctype string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	return s.do(req, v)
}

func (s *server) do(req *http.Request, v any) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// search runs GET /search?q=…&n=… and returns the served results.
func (s *server) search(ctx context.Context, tags []string, n int) ([]cubelsi.Result, error) {
	var out struct {
		Results []cubelsi.Result `json:"results"`
	}
	q := url.Values{"q": {strings.Join(tags, ",")}, "n": {fmt.Sprint(n)}}
	err := s.getJSON(ctx, "/search?"+q.Encode(), &out)
	return out.Results, err
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Assignments  int    `json:"assignments"`
	ModelVersion uint64 `json:"model_version"`
	Stream       *struct {
		Backpressured uint64  `json:"backpressured"`
		Flushes       uint64  `json:"flushes"`
		FlushErrors   uint64  `json:"flush_errors"`
		Dropped       uint64  `json:"dropped"`
		LastFlushMS   float64 `json:"last_flush_ms"`
	} `json:"stream"`
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	err := s.getJSON(ctx, "/stats", &st)
	return st, err
}

// cpuSelf is the CPU time this process has used so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
