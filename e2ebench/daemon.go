package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"joss/internal/obs"
)

// daemon is a jossd child process serving on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	url     string        // http://127.0.0.1:<port>
	drained chan struct{} // closed once the daemon's stderr hits EOF
}

// retainJobs is how many finished jobs every benchmarked session keeps
// for lookup by id. The default (256) would make peak RSS grow with the
// number of requests a run completes, so with the program's speed; one
// keeps it a measure of the working set.
const retainJobs = 1

// startDaemon execs jossd on an ephemeral loopback port and returns
// once it logs its "serving" line — the moment it accepts requests, as
// the daemon itself reports it, with no polling.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-retainjobs", strconv.Itoa(retainJobs))
	// The daemon dies with the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(stderr)
	var seen []string
	for d.url == "" {
		line, err := br.ReadString('\n')
		if err != nil {
			cmd.Process.Kill()
			io.Copy(io.Discard, br)
			cmd.Wait()
			return nil, fmt.Errorf("jossd exited before serving: %s", strings.Join(seen, " | "))
		}
		seen = append(seen, strings.TrimSpace(line))
		if !strings.Contains(line, "msg=serving") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if addr, ok := strings.CutPrefix(f, "addr="); ok {
				d.url = "http://" + addr
			}
		}
	}
	// Keep draining the log so the daemon never blocks on a full pipe.
	go func() {
		io.Copy(io.Discard, br)
		close(d.drained)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain (SIGTERM), escalating to SIGKILL after
// a grace period, and waits for it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 0 {
		err = nil
	}
	return err
}

// newClient returns an HTTP client holding at most conns connections
// to the daemon, kept alive across requests.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends body and reads the whole response; a transport error
// comes back as a failedOp.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, &failedOp{msg: err.Error()}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, b, &failedOp{msg: err.Error()}
	}
	return resp.StatusCode, b, nil
}

// snapshot is one /metrics reading keyed by series (name plus sorted
// labels).
type snapshot map[string]obs.Point

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k, v := range labels {
		ks = append(ks, k+"="+v)
	}
	sort.Strings(ks)
	return name + "{" + strings.Join(ks, ",") + "}"
}

func newSnapshot(pts []obs.Point) snapshot {
	s := make(snapshot, len(pts))
	for _, p := range pts {
		s[seriesKey(p.Name, p.Labels)] = p
	}
	return s
}

// scrape reads the daemon's public GET /metrics?format=json.
func scrape(c *http.Client, base string) (snapshot, error) {
	resp, err := c.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	pts, err := obs.ParseJSON(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return newSnapshot(pts), nil
}

// hdelta is the change of one series between two snapshots: count is
// the counter increase or histogram observation count, sum the
// histogram sum, cum the cumulative bucket counts at the upper edges le
// (+Inf last).
type hdelta struct {
	count, sum float64
	le, cum    []float64
}

func (before snapshot) delta(after snapshot, name string, labels map[string]string) hdelta {
	k := seriesKey(name, labels)
	a, b := before[k], after[k]
	d := hdelta{count: b.Value - a.Value, sum: b.Sum - a.Sum}
	for i, bp := range b.Buckets {
		le := math.Inf(1)
		if bp.LE != nil {
			le = *bp.LE
		}
		c := float64(bp.Count)
		if i < len(a.Buckets) {
			c -= float64(a.Buckets[i].Count)
		}
		d.le = append(d.le, le)
		d.cum = append(d.cum, c)
	}
	return d
}

// mean returns Sum/Count (0 when nothing was observed).
func (d hdelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / d.count
}

// quantile estimates the q-quantile from the bucket deltas the way
// Prometheus' histogram_quantile does: linear interpolation inside the
// bucket holding the rank; a rank in the +Inf bucket reports the last
// finite edge.
func (d hdelta) quantile(q float64) float64 {
	if d.count == 0 || len(d.cum) == 0 {
		return 0
	}
	rank := q * d.count
	lo, prev := 0.0, 0.0
	for i, c := range d.cum {
		if c >= rank {
			if math.IsInf(d.le[i], 1) {
				return lo
			}
			if c == prev {
				return d.le[i]
			}
			return lo + (d.le[i]-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = d.le[i], c
	}
	return lo
}
