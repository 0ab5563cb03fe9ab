package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one nutriserve process started by the benchmark.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	log    *syncBuffer
}

// syncBuffer collects the server's output for error reports.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 64<<10 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(b.buf.String())
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns nutriserve on a free loopback port with nothing but
// -addr, -db and -quiet, and returns once /v1/healthz answers 200. The
// returned duration runs from spawn to that first 200.
func startServer(bin, image string) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		c := &child{
			base:   "http://127.0.0.1:" + strconv.Itoa(port),
			exited: make(chan struct{}),
			log:    &syncBuffer{},
		}
		c.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-db", image, "-quiet")
		c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
		// The server dies with the benchmark, whatever ends it.
		c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := c.cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() { c.err = c.cmd.Wait(); close(c.exited) }()
		setup, err := c.awaitHealthy(t0, 60*time.Second)
		if err == nil {
			return c, setup, nil
		}
		lastErr = err
		c.stop()
	}
	return nil, 0, lastErr
}

func (c *child) awaitHealthy(t0 time.Time, limit time.Duration) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	for time.Since(t0) < limit {
		select {
		case <-c.exited:
			return 0, fmt.Errorf("nutriserve exited before becoming healthy (%v): %s", c.err, c.log)
		default:
		}
		resp, err := client.Get(c.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return 0, fmt.Errorf("nutriserve not healthy after %s: %s", limit, c.log)
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within 20s, and returns once it has.
func (c *child) stop() {
	select {
	case <-c.exited:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}
