package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sessionParams is the keyspace every served workload uses; only the key
// seed varies (derived from the workload seed).
type sessionParams struct {
	LogN        int   `json:"log_n"`
	Levels      int   `json:"levels"`
	LogScale    int   `json:"log_scale"`
	Rotations   []int `json:"rotations"`
	Conjugation bool  `json:"conjugation"`
	EnableKLSS  bool  `json:"enable_klss"`
	Seed        int64 `json:"seed"`
}

func newSessionParams(seed int64) sessionParams {
	return sessionParams{LogN: 11, Levels: 5, LogScale: 36, Rotations: []int{1, -1, 4},
		Conjugation: true, EnableKLSS: true, Seed: seed}
}

// fastdFlags is the daemon's command line for a workload: one shard, one
// worker, access log in the run's scratch directory.
func fastdFlags(workload, dir string) []string {
	flags := []string{"-addr", "127.0.0.1:0", "-shards", "1", "-workers", "1",
		"-access-log", filepath.Join(dir, "access.log")}
	if workload == "serve-durable" {
		flags = append(flags, "-state-dir", filepath.Join(dir, "state"), "-max-resident-sessions", "4")
	}
	return flags
}

// daemon is one spawned fastd process and the client that talks to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	client *http.Client
	exited chan struct{}
}

// startFastd spawns fastd with the workload's flags and returns once it
// answers /healthz.
func startFastd(cfg *runConfig, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor
	lw := &lineWaiter{first: make(chan string, 1)}
	cmd := exec.Command(cfg.fastd, fastdFlags(cfg.workload, dir)...)
	cmd.Stdout = lw
	cmd.Stderr = stderr
	// The daemon must not outlive fastbench, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fastd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()

	var line string
	select {
	case line = <-lw.first:
	case <-d.exited:
		return nil, fmt.Errorf("fastd exited before serving (see %s)", stderr.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("fastd did not report its address within 30s")
	}
	// "fastd serving on http://127.0.0.1:PORT (...)"
	_, rest, ok := strings.Cut(line, "http://")
	addr, _, _ := strings.Cut(rest, " ")
	if !ok || addr == "" {
		d.stop()
		return nil, fmt.Errorf("unexpected fastd banner %q", line)
	}
	d.base = "http://" + addr
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("fastd not healthy within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks fastd to drain and waits for it to exit, killing it after 20s.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

func vmHWM(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// post sends body and reads the whole response into buf (reset first).
func (d *daemon) post(path string, body []byte, header http.Header, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// postJSON is post for set-up calls: it fails on any non-200 status.
func (d *daemon) postJSON(path string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	status, err := d.post(path, body, nil, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", path, status, strings.TrimSpace(buf.String()))
	}
	return buf.Bytes(), nil
}

// createSession creates a keyspace and returns its id.
func (d *daemon) createSession(p sessionParams) (string, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	raw, err := d.postJSON("/v1/sessions", body)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return "", fmt.Errorf("decode session response: %w", err)
	}
	return resp.ID, nil
}

// scrape reads /metrics into series -> value (labels kept in the key).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// ciphertextField returns the base64 ciphertext of a fastd ciphertext
// response without JSON-decoding it: base64 holds no character JSON escapes,
// so the field is the bytes between its quotes.
func ciphertextField(resp []byte) ([]byte, error) {
	const key = `"ciphertext":"`
	i := bytes.Index(resp, []byte(key))
	if i < 0 {
		return nil, errors.New("response has no ciphertext field")
	}
	rest := resp[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, errors.New("unterminated ciphertext field")
	}
	return rest[:j], nil
}

// lineWaiter is fastd's stdout: it hands the first line (the serving banner)
// to first and discards the rest.
type lineWaiter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	// first has room for its one value, so Write never blocks.
	first chan string
}

func (w *lineWaiter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.first <- string(w.buf[:i])
		w.sent = true
		w.buf = nil
	}
	return len(p), nil
}
