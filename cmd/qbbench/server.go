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
	"sync"
	"time"
)

const (
	bootLimit    = 120 * time.Second
	requestLimit = 10 * time.Second
	healthPoll   = 5 * time.Millisecond
)

// repoRoot walks up from the working directory to the module root, so
// the benchmark runs from the checkout root (the driver) and from its
// own package directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("qbbench: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// outDir is where the benchmark leaves what it builds and writes; it is
// git-ignored.
func outDir(root string) string { return filepath.Join(root, "cmd", "qbbench", "out") }

// buildServer compiles cmd/queenbeed, outside any timed region.
func buildServer(ctx context.Context, root string) (string, error) {
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir(root), "queenbeed")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/queenbeed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/queenbeed: %w\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last max bytes written, enough of a server's
// stderr to explain a failed boot.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one queenbeed subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
	bootS  float64       // exec → first 200 on /healthz
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer launches queenbeed on a free port and waits for its first
// 200 on /healthz. The subprocess dies with ctx; stop reaps it. conns
// caps the connections the load generator may hold.
func startServer(ctx context.Context, bin string, conns int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		base:   "http://" + addr,
		stderr: &tailBuffer{max: 8 << 10},
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout: requestLimit,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
	s.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start queenbeed: %w", err)
	}
	go func() {
		// The exit status of a killed server carries nothing: stop and
		// the boot loop below report what matters.
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("queenbeed %v exited during boot; stderr:\n%s", args, s.stderr)
		case <-ctx.Done():
			s.stop()
			return nil, fmt.Errorf("queenbeed %v: %w during boot; stderr:\n%s", args, ctx.Err(), s.stderr)
		default:
		}
		if time.Since(start) > bootLimit {
			s.stop()
			return nil, fmt.Errorf("queenbeed %v not healthy after %v; stderr:\n%s", args, bootLimit, s.stderr)
		}
		time.Sleep(healthPoll)
	}
}

// stop kills the subprocess and waits until it has been reaped.
func (s *server) stop() {
	// Kill fails only when the process has already exited.
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

// procStatusMB reads a kB field of /proc/<pid>/status, in MB.
func (s *server) procStatusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuSeconds is the server's utime+stime so far.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / clockTicks, nil
}

// hostSteal reads the cumulative steal and total jiffies of the host.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
