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
	"strconv"
	"strings"
	"syscall"
	"time"

	"mcmnpu/internal/api"
)

// daemon is one cmd/serve child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	client  *http.Client
	drained chan struct{} // closed once the child's stdout hits EOF
}

// newClient returns an HTTP client bound to a single keep-alive
// connection, so a workload's client count is its connection count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startDaemon launches the serve binary on a free loopback port with
// the given engine worker count and waits for its first healthz.
func startDaemon(bin string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, client: newClient(), drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(d.drained)
	}()
	const banner = "serving on "
	if err != nil || !strings.HasPrefix(line, banner) {
		d.stop()
		return nil, fmt.Errorf("daemon banner %q: %v", line, err)
	}
	d.url = strings.Fields(line[len(banner):])[0]
	for i := 0; ; i++ {
		resp, err := d.client.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 100 {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// post sends one request and returns the status, X-Cache header and
// the whole body.
func post(c *http.Client, req *http.Request) (int, bool, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", body, err
}

// warm sends the set-up requests one at a time; each must succeed.
func (d *daemon) warm(rqs []request) error {
	for _, rq := range rqs {
		req, err := http.NewRequest(http.MethodPost, d.url+rq.path, bytes.NewReader(rq.body))
		if err != nil {
			return err
		}
		code, _, body, err := post(d.client, req)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", rq.path, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", rq.path, code, body)
		}
	}
	return nil
}

func (d *daemon) stats() (api.ServerStats, error) {
	var st api.ServerStats
	resp, err := d.client.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// peakRSSMB reads the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop interrupts the daemon (graceful drain), kills it if the drain
// stalls, and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	d.cmd.Wait()
}
