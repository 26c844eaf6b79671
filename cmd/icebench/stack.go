package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/icegate"
	"repro/internal/icemesh"
	"repro/internal/icestore"
)

// stackConfig selects the serving stack a workload runs on.
type stackConfig struct {
	executors, workers int
	mesh               bool // execute cells on an in-process icemesh cluster
	store              *icestore.Store
	tenants            icegate.TenantsConfig
}

// gatewayConfig is the stack every workload window runs on.
func gatewayConfig(workload string) stackConfig {
	sc := stackConfig{executors: gateExecutors, workers: gateWorkers}
	switch workload {
	case wlICUMesh:
		sc.mesh = true
	case wlWardOpen:
		sc.tenants = wardTenants
	}
	return sc
}

// stack is the serving stack under test, started in-process: the
// gateway scheduler behind its real HTTP handler on a loopback listener,
// optionally over a coordinator with worker nodes on loopback TCP, plus
// the benchmark's HTTP client.
type stack struct {
	sched  *icegate.Scheduler
	srv    *http.Server
	served chan struct{} // closed when srv.Serve returns
	base   string
	client *http.Client

	mesh *cluster // nil unless the workload runs on a mesh
}

func startStack(sc stackConfig) (*stack, error) {
	s := &stack{}
	cfg := icegate.Config{
		QueueDepth: gateQueue, Executors: sc.executors, Workers: sc.workers,
		Tenants: sc.tenants, Store: sc.store,
	}
	if sc.mesh {
		var err error
		if s.mesh, err = startCluster(); err != nil {
			return nil, err
		}
		cfg.Backend = s.mesh.coord
	}
	s.sched = icegate.NewScheduler(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("gateway listener: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: icegate.NewHandler(s.sched)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// cluster is an icemesh coordinator and its worker nodes on loopback TCP.
type cluster struct {
	coord     *icemesh.Coordinator
	ln        net.Listener
	served    chan struct{} // closed when coord.Serve returns
	stopNodes context.CancelFunc
	nodes     sync.WaitGroup
	join      time.Duration // from starting the nodes until all had joined
}

func startCluster() (*cluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mesh listener: %w", err)
	}
	c := &cluster{coord: icemesh.NewCoordinator(icemesh.Config{}), ln: ln, served: make(chan struct{})}
	go func() {
		defer close(c.served)
		_ = c.coord.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	c.stopNodes = cancel
	t0 := time.Now()
	for i := 0; i < meshNodes; i++ {
		node := icemesh.NewNode(icemesh.NodeConfig{Coordinator: ln.Addr().String(), Workers: nodeWorkers})
		c.nodes.Add(1)
		go func() {
			defer c.nodes.Done()
			_ = node.Run(ctx)
		}()
	}
	// Poll finely: the coordinator's own WaitForNodes polls every 10 ms,
	// coarser than a loopback join.
	for c.coord.NodeCount() < meshNodes {
		if time.Since(t0) > 10*time.Second {
			c.close()
			return nil, fmt.Errorf("mesh nodes did not join within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	c.join = time.Since(t0)
	return c, nil
}

// close stops the nodes and the coordinator and waits for them to end.
func (c *cluster) close() {
	c.stopNodes()
	c.coord.Close()
	_ = c.ln.Close()
	<-c.served
	c.nodes.Wait()
}

// close stops everything startStack started and waits for it to end.
func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.sched != nil {
		s.sched.Close()
	}
	if s.mesh != nil {
		s.mesh.close()
	}
}

// submit posts one job and returns its ID.
func (s *stack) submit(req icegate.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v icegate.View
	if err := json.Unmarshal(data, &v); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return v.ID, nil
}

// wait blocks until the job is terminal. It reads the scheduler's done
// signal directly, which costs no connection.
func (s *stack) wait(id string) error {
	job, ok := s.sched.Get(id)
	if !ok {
		return fmt.Errorf("job %s not registered", id)
	}
	<-job.Done()
	return nil
}

// result fetches a finished job's table and whether the cache served it.
func (s *stack) result(id string) (table string, cached bool, err error) {
	data, resp, err := s.get("/api/v1/jobs/" + id + "/result")
	if err != nil {
		return "", false, err
	}
	return string(data), resp.Header.Get("X-Icegate-Cached") == "true", nil
}

// traceText fetches a traced job's span tree.
func (s *stack) traceText(id string) (string, error) {
	data, _, err := s.get("/api/v1/jobs/" + id + "/trace")
	return string(data), err
}

// get fetches a path and requires a 200.
func (s *stack) get(path string) ([]byte, *http.Response, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp, nil
}

// scrape reads the gateway's /metrics.
func (s *stack) scrape() (promSample, error) {
	data, _, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(data))
}

// runJob is one serial job: submit, wait, fetch the result.
func (s *stack) runJob(req icegate.Request) (table string, cached bool, err error) {
	id, err := s.submit(req)
	if err != nil {
		return "", false, err
	}
	if err := s.wait(id); err != nil {
		return "", false, err
	}
	return s.result(id)
}
