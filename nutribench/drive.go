package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// newConnClient returns a client that holds at most one connection, so
// each sending goroutine is exactly one connection to the server.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// auditStream reads an NDJSON response that must hold exactly want
// newline-terminated lines, passing each (without its newline) to check.
// It fails on a torn final line, a missing or extra line, or the first
// line check rejects.
func auditStream(r io.Reader, want int, check func(i int, line []byte) error) error {
	br := bufio.NewReaderSize(r, 256<<10)
	got := 0
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A line longer than the buffer: assemble it.
			full := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				full = append(full, line...)
			}
			line = full
		}
		if n := len(line); n > 0 {
			if line[n-1] != '\n' {
				return fmt.Errorf("torn response line %d (%d bytes without newline)", got+1, n)
			}
			if got == want {
				return fmt.Errorf("extra response line %d beyond the %d sent", got+1, want)
			}
			if cerr := check(got, line[:n-1]); cerr != nil {
				return fmt.Errorf("response line %d: %w", got+1, cerr)
			}
			got++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading response line %d: %w", got+1, err)
		}
	}
	if got != want {
		return fmt.Errorf("missing response lines: sent %d, got %d", want, got)
	}
	return nil
}

// bulkRun is the outcome of one closed-loop bulk stream.
type bulkRun struct {
	recipes int
	chunks  int
}

// runBulk streams chunks through POST /v1/batch on one connection,
// closed loop: the next chunk is sent once the previous response has
// been read to its end. It sends chunks first, first+stride, ... of the
// corpus, cycling when the window outlasts it, and starts no chunk
// after deadline or once it has sent limit chunks (0: no limit). check
// sees every response line with its pass over the corpus and its
// recipe index.
func runBulk(client *http.Client, url string, chunks []chunk, first, stride, limit int, deadline time.Time,
	check func(pass, recipe int, line []byte) error) (bulkRun, error) {
	var res bulkRun
	for k := first; time.Now().Before(deadline) && (limit == 0 || res.chunks < limit); k += stride {
		c := chunks[k%len(chunks)]
		pass := k / len(chunks)
		resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(c.body))
		if err != nil {
			return res, fmt.Errorf("bulk chunk %d: %w", k, err)
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return res, fmt.Errorf("bulk chunk %d: status %d", k, resp.StatusCode)
		}
		err = auditStream(resp.Body, c.n, func(i int, line []byte) error {
			return check(pass, c.first+i, line)
		})
		resp.Body.Close()
		if err != nil {
			return res, fmt.Errorf("bulk chunk %d (recipes %d..%d): %w", k, c.first, c.first+c.n-1, err)
		}
		res.recipes += c.n
		res.chunks++
	}
	return res, nil
}

// rung is one fixed-rate stage of an open-loop schedule.
type rung struct {
	rate float64 // requests per second
	dur  time.Duration
}

// sample is one open-loop request's outcome. lat runs from the time the
// request was due, so a stall is charged to every request it delays;
// lag is how late the generator itself sent it (time after due, or
// after the connection became free when that was later).
type sample struct {
	lat time.Duration
	lag time.Duration
	err error
}

// rungRun is the outcome of one rung.
type rungRun struct {
	samples []sample
	backlog bool // the schedule fell behind by more than maxBehind
}

// maxBehind is how late a claim may run before a rung is abandoned, so
// a stalled server cannot stretch the run: its remaining requests are
// not sent.
const maxBehind = time.Second

// openLoop sends the requests of one rung on the given connections, at
// fixed due times start + i/rate regardless of replies. A free
// connection claims the next request in order; do sends request i.
func openLoop(conns []*http.Client, r rung, do func(c *http.Client, i int) error) rungRun {
	n := int(r.rate * r.dur.Seconds())
	interval := time.Duration(float64(time.Second) / r.rate)
	out := rungRun{samples: make([]sample, 0, n)}
	var mu sync.Mutex
	next := 0
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || out.backlog {
					mu.Unlock()
					return
				}
				next++
				due := start.Add(time.Duration(i) * interval)
				free := time.Now()
				if free.Sub(due) > maxBehind {
					out.backlog = true
					mu.Unlock()
					return
				}
				mu.Unlock()
				waitUntil(due)
				sent := time.Now()
				err := do(c, i)
				done := time.Now()
				ref := due
				if free.After(due) {
					ref = free
				}
				mu.Lock()
				out.samples = append(out.samples, sample{lat: done.Sub(due), lag: sent.Sub(ref), err: err})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// waitUntil sleeps until t without making the generator late. The Go
// timer wakes up to a millisecond late on Linux (its poller waits in
// whole milliseconds), so it only covers the time before the last 2ms;
// a nanosleep on this goroutine's thread covers the rest to within the
// kernel's timer slack, and yielding covers the final 100µs.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	if d := time.Until(t); d > 100*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(d - 100*time.Microsecond))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just ends the wait early
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// dist summarizes durations: median, p99 and count.
type dist struct {
	n        int
	p50, p99 time.Duration
}

func summarize(ds []time.Duration) dist {
	if len(ds) == 0 {
		return dist{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration { return s[int(q*float64(len(s)-1)+0.5)] }
	return dist{n: len(s), p50: at(0.50), p99: at(0.99)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
