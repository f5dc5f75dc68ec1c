package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"statcube/internal/core"
	"statcube/internal/cube"
	"statcube/internal/serve"
	"statcube/internal/snapshot"
	"statcube/internal/workload"
	"statcube/internal/writer"
)

// daemon is statd assembled in-process from the constructors cmd/statd
// uses, with statd's default flags: serve.New over the retail object,
// serve.ListenAndServe on a loopback port, and — for the write path, as
// `statd -write -snapshot-dir DIR` — writer.Open over snapshot.OpenStore
// with OnPublish wired to SetGeneration.
type daemon struct {
	obj   *core.StatObject
	base  *cube.Input
	srv   *serve.Server
	hs    *serve.HTTPServer
	wr    *writer.Writer
	store *snapshot.Store
	dir   string
	url   string
}

// snapName is the snapshot name statd uses for the retail demo.
const snapName = "retail"

// newRetail builds statd's retail demo object from a workload seed.
func newRetail(seed int64) (*workload.Retail, error) {
	return workload.NewRetail(retailProducts, retailStores, retailDays, retailTx, seed)
}

// startDaemon brings a daemon up over obj. With durable set it mounts the
// write path on a fresh snapshot store in a new temporary directory.
func startDaemon(ctx context.Context, obj *core.StatObject, durable bool) (*daemon, error) {
	d := &daemon{obj: obj}
	if durable {
		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		if d.store, err = snapshot.OpenStore(dir); err != nil {
			d.close()
			return nil, err
		}
		if d.base, err = workload.CubeInputFromObject(obj); err != nil {
			d.close()
			return nil, err
		}
		d.wr, err = writer.Open(ctx, writer.Config{
			Store: d.store,
			Name:  snapName,
			Base:  d.base,
			OnPublish: func(gen uint64) {
				if d.srv != nil {
					d.srv.SetGeneration(gen)
				}
			},
		})
		if err != nil {
			d.close()
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{Object: obj, Timeout: 5 * time.Second, Writer: d.wr})
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	if d.wr != nil {
		srv.SetGeneration(d.wr.Generation())
	}
	if d.hs, err = serve.ListenAndServe("127.0.0.1:0", srv.Handler()); err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + d.hs.Addr().String()
	return d, nil
}

// close stops the listener, the writer and removes the store directory.
func (d *daemon) close() {
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = d.hs.Shutdown(ctx) // a failed drain leaves nothing to recover in a benchmark
		cancel()
		d.hs = nil
	}
	if d.wr != nil {
		_ = d.wr.Close(context.Background()) // nothing is buffered: every append flushes
		d.wr = nil
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // best effort: a leftover temporary directory is harmless
		d.dir = ""
	}
}

// newClient returns an HTTP client that keeps at most conns loopback
// connections open.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// reply is one served answer.
type reply struct {
	status int
	cache  string // X-Statd-Cache
	gen    uint64 // X-Statd-Generation
	body   []byte
}

// get sends one query to /query.bin and reads the whole reply.
func get(client *http.Client, base, text string) (reply, error) {
	resp, err := client.Get(base + "/query.bin?q=" + url.QueryEscape(text))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Statd-Cache"), body: body}
	if g := resp.Header.Get("X-Statd-Generation"); g != "" {
		r.gen, _ = strconv.ParseUint(g, 10, 64) // absent on errors; 0 then
	}
	return r, nil
}

// postAppend sends one batch to /append and checks it was published.
func postAppend(client *http.Client, base string, b appendBatch) (writer.Status, error) {
	body, err := json.Marshal(struct {
		Rows [][]int   `json:"rows"`
		Vals []float64 `json:"vals"`
	}{b.rows, b.vals})
	if err != nil {
		return writer.Status{}, err
	}
	resp, err := client.Post(base+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return writer.Status{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return writer.Status{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return writer.Status{}, fmt.Errorf("append: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st writer.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return writer.Status{}, fmt.Errorf("append: reply is not a writer status: %w", err)
	}
	return st, nil
}
