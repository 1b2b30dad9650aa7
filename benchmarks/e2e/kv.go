package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// Operation kinds of the kv workloads, and the endpoint each one calls.
const (
	kGet = iota
	kPut
	kCas
	kDel
	kMput
	kMget
	kRange
	numKinds
)

var (
	kindPath = [numKinds]string{"/kv/get", "/kv/put", "/kv/cas", "/kv/del", "/kv/mput", "/kv/mget", "/kv/range"}
	kindName = [numKinds]string{"get", "put", "cas", "del", "mput4", "mget4", "range256"}
)

// kvMix is the share of each kind, in percent.
type kvMix [numKinds]int

var (
	// pointMix is what a proteusd client doing single-key work sends.
	pointMix = kvMix{kGet: 80, kPut: 10, kCas: 5, kDel: 5}
	// multiMix is write-heavy and multi-key: the batches span both shards, so
	// gets run beside cross-shard fences.
	multiMix = kvMix{kGet: 30, kPut: 10, kMput: 25, kMget: 20, kRange: 15}
)

const (
	batchKeys = 4   // keys per mput/mget
	rangeSpan = 256 // keys per range scan
	// serveSeed is proteusd's default --seed. The seed picks the TM
	// configuration a shard boots with, so it stays fixed: the benchmark seed
	// drives only the traffic.
	serveSeed   = 42
	kvShards    = 2
	kvWorkers   = 2
	verifyBatch = 128 // serve's default MaxBatchKeys
	censusSpan  = 4096
)

// kvOp is one pre-generated operation. Everything but a cas carries its
// rendered query string, so the timed loop only issues it; a cas needs the
// key's current value and is rendered when issued.
type kvOp struct {
	kind  uint8
	keys  [batchKeys]uint32
	val   uint64 // put/cas: new value; mput: value of keys[0], +i for keys[i]
	query string
}

// reply mirrors the JSON body of a serve response.
type reply struct {
	Found   bool     `json:"found"`
	Applied bool     `json:"applied"`
	Existed bool     `json:"existed"`
	Val     uint64   `json:"val"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Vals    []uint64 `json:"vals"`
	Present []bool   `json:"present"`
	Err     string   `json:"err"`
}

// transport carries one request to the server and returns status and body.
type transport interface {
	do(kind int, query string) (code int, body []byte, err error)
}

// wireTransport is a real client on one keep-alive loopback TCP connection.
// It speaks HTTP/1.1 itself, synchronously on the caller's goroutine:
// net/http's client hands every request through two more goroutines per
// connection, and their wake-ups were the least repeatable part of the round
// trip (run-to-run spread of the p50 8.4 % with it, 2.1 % without). The
// server side is net/http's as proteusd runs it.
type wireTransport struct {
	conn net.Conn
	r    *bufio.Reader
	host string
	out  []byte
	body []byte
}

func newWireTransport(addr string) (*wireTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireTransport{conn: conn, r: bufio.NewReaderSize(conn, 16<<10), host: addr}, nil
}

func (t *wireTransport) do(kind int, query string) (int, []byte, error) {
	b := append(t.out[:0], "GET "...)
	b = append(b, kindPath[kind]...)
	b = append(b, '?')
	b = append(b, query...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, t.host...)
	b = append(b, "\r\n\r\n"...)
	t.out = b
	if _, err := t.conn.Write(b); err != nil {
		return 0, nil, err
	}
	return t.readResponse()
}

// readResponse parses one response: the status line, the two headers that
// say how the body is framed, and the body.
func (t *wireTransport) readResponse() (int, []byte, error) {
	line, err := t.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < len("HTTP/1.1 200") || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("wire: status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("wire: status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = t.r.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if line = bytes.TrimRight(line, "\r\n"); len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("wire: Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	t.body = t.body[:0]
	switch {
	case chunked:
		for {
			if line, err = t.r.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("wire: chunk size %q", line)
			}
			if err := t.readBody(int(n) + 2); err != nil { // the chunk and its CRLF
				return 0, nil, err
			}
			t.body = t.body[:len(t.body)-2]
			if n == 0 {
				return code, t.body, nil
			}
		}
	case length >= 0:
		return code, t.body, t.readBody(length)
	default:
		return 0, nil, errors.New("wire: response without Content-Length or chunked encoding")
	}
}

// readBody appends the next n bytes of the connection to t.body.
func (t *wireTransport) readBody(n int) error {
	at := len(t.body)
	t.body = append(t.body, make([]byte, n)...)
	_, err := io.ReadFull(t.r, t.body[at:])
	return err
}

func (t *wireTransport) close() { t.conn.Close() } //nolint:errcheck // the connection is being discarded

// procTransport calls the server's handler in process: no sockets, no
// net/http server, only serve itself.
type procTransport struct {
	srv  *serve.Server
	reqs [numKinds]*http.Request
	rw   memWriter
}

func newProcTransport(srv *serve.Server) (*procTransport, error) {
	t := &procTransport{srv: srv, rw: memWriter{hdr: http.Header{}}}
	for k, p := range kindPath {
		req, err := http.NewRequest(http.MethodGet, "http://bench"+p, nil)
		if err != nil {
			return nil, err
		}
		t.reqs[k] = req
	}
	return t, nil
}

func (t *procTransport) do(kind int, query string) (int, []byte, error) {
	req := t.reqs[kind]
	req.URL.RawQuery = query // ServeHTTP is synchronous, so the request is reusable
	t.rw.code = http.StatusOK
	t.rw.body.Reset()
	t.srv.ServeHTTP(&t.rw, req)
	return t.rw.code, t.rw.body.Bytes(), nil
}

// memWriter is the least a handler needs from a ResponseWriter.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// kvClient is one closed-loop caller. It writes only keys of its own stripe
// (key ≡ id mod clients; under hashing a stripe spans both shards) and keeps
// a shadow of that stripe, so every reply about an own key is checked
// exactly; reads go anywhere.
type kvClient struct {
	id, clients int
	tr          transport
	stream      []kvOp
	pos         int
	seq         uint64 // operations issued, the request id of trace spans

	shVal []uint64 // shadow of the own stripe, indexed key/clients
	shHas []bool

	rep     reply
	scratch []byte
}

func (c *kvClient) own(key uint32) bool { return int(key)%c.clients == c.id }

// step issues the next operation of the stream (which repeats).
func (c *kvClient) step(tb *spanBuf) bool {
	op := &c.stream[c.pos]
	if c.pos++; c.pos == len(c.stream) {
		c.pos = 0
	}
	c.seq++
	if tb == nil {
		return c.issue(c.tr, op)
	}
	t0 := time.Now()
	ok := c.issue(c.tr, op)
	tb.record(kindName[op.kind], 0, c.seq<<8|uint64(c.id), t0, time.Now())
	return ok
}

// issue sends op through tr, parses the reply and checks it against the
// shadow. A reply that is refused, malformed or wrong fails the operation.
func (c *kvClient) issue(tr transport, op *kvOp) bool {
	query := op.query
	k0 := op.keys[0]
	i0 := int(k0) / c.clients
	var casOld uint64
	if op.kind == kCas {
		casOld = c.shVal[i0] // a missing key reads 0 and the cas must not apply
		b := append(c.scratch[:0], "key="...)
		b = strconv.AppendUint(b, uint64(k0), 10)
		b = append(b, "&old="...)
		b = strconv.AppendUint(b, casOld, 10)
		b = append(b, "&new="...)
		b = strconv.AppendUint(b, op.val, 10)
		c.scratch = b
		query = string(b)
	}
	code, body, err := tr.do(int(op.kind), query)
	if err != nil || code != http.StatusOK {
		return false
	}
	r := &c.rep
	*r = reply{Vals: r.Vals[:0], Present: r.Present[:0]}
	if json.Unmarshal(body, r) != nil || r.Err != "" {
		return false
	}
	switch op.kind {
	case kGet:
		if c.own(k0) {
			return r.Found == c.shHas[i0] && (!r.Found || r.Val == c.shVal[i0])
		}
		return true
	case kPut:
		ok := r.Applied && r.Existed == c.shHas[i0]
		c.shHas[i0], c.shVal[i0] = true, op.val
		return ok
	case kDel:
		ok := r.Applied == c.shHas[i0]
		c.shHas[i0], c.shVal[i0] = false, 0
		return ok
	case kCas:
		if !c.shHas[i0] {
			return !r.Applied
		}
		c.shVal[i0] = op.val
		return r.Applied && r.Val == op.val
	case kMput:
		for i, k := range op.keys {
			c.shHas[int(k)/c.clients], c.shVal[int(k)/c.clients] = true, op.val+uint64(i)
		}
		return r.Applied
	case kMget:
		if len(r.Vals) != batchKeys || len(r.Present) != batchKeys {
			return false
		}
		for i, k := range op.keys {
			if !c.own(k) {
				continue
			}
			if j := int(k) / c.clients; r.Present[i] != c.shHas[j] || (r.Present[i] && r.Vals[i] != c.shVal[j]) {
				return false
			}
		}
		return true
	default: // kRange
		return r.Count <= rangeSpan
	}
}

// verifyStripe reads the whole own stripe back with mget and compares it with
// the shadow; it returns reads attempted, reads failed, and how many own keys
// the shadow says exist.
func (c *kvClient) verifyStripe(keys int) (attempted, failed, present uint64) {
	var q []byte
	for base := c.id; base < keys; base += verifyBatch * c.clients {
		q = append(q[:0], "keys="...)
		n := 0
		for k := base; k < keys && n < verifyBatch; k += c.clients {
			if n > 0 {
				q = append(q, ',')
			}
			q = strconv.AppendInt(q, int64(k), 10)
			n++
		}
		attempted++
		code, body, err := c.tr.do(kMget, string(q))
		var r reply
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &r) != nil || len(r.Vals) != n || len(r.Present) != n {
			failed++
			continue
		}
		for i := 0; i < n; i++ {
			j := base/c.clients + i
			if r.Present[i] != c.shHas[j] || (r.Present[i] && r.Vals[i] != c.shVal[j]) {
				failed++
				break
			}
		}
	}
	for _, has := range c.shHas {
		if has {
			present++
		}
	}
	return attempted, failed, present
}

// kvEnv is one server with its callers.
type kvEnv struct {
	keys    int
	srv     *serve.Server
	serverT time.Duration // how long serve.New took, preload included
	hs      *http.Server
	served  chan error
	clients []*kvClient
}

// newServer builds the server every kv workload runs against: pinned, the way
// issue 13 fixes it — no tuner, no SLO or deadline, no group commit, no fault
// injector, default TM configuration and fence granularity.
func newServer(preload int) (*serve.Server, error) {
	return serve.New(serve.Options{
		Shards:      kvShards,
		Partitioner: shard.KindHash,
		Workers:     kvWorkers,
		Seed:        serveSeed,
		Preload:     preload,
	})
}

// setupKV builds the server, optionally puts it behind a loopback listener,
// and generates every client's operation stream from the seed.
func setupKV(sz sizes, seed uint64, mix kvMix, wire bool, clients int) (*kvEnv, error) {
	t0 := time.Now()
	srv, err := newServer(sz.keys)
	if err != nil {
		return nil, err
	}
	e := &kvEnv{keys: sz.keys, srv: srv, serverT: time.Since(t0)}
	addr := ""
	if wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		e.hs = &http.Server{Handler: srv}
		e.served = make(chan error, 1)
		go func() { e.served <- e.hs.Serve(ln) }()
		addr = ln.Addr().String()
	}
	for id := 0; id < clients; id++ {
		c, err := newKVClient(e, id, clients, addr)
		if err != nil {
			e.close()
			return nil, err
		}
		c.stream = genStream(sz, seed, mix, id, clients)
		e.clients = append(e.clients, c)
	}
	return e, nil
}

func newKVClient(e *kvEnv, id, clients int, addr string) (*kvClient, error) {
	c := &kvClient{id: id, clients: clients}
	var err error
	if addr != "" {
		c.tr, err = newWireTransport(addr)
	} else {
		c.tr, err = newProcTransport(e.srv)
	}
	if err != nil {
		return nil, err
	}
	n := (e.keys - id + clients - 1) / clients
	c.shVal, c.shHas = make([]uint64, n), make([]bool, n)
	for j := range c.shVal { // the preload stores value = key
		c.shVal[j], c.shHas[j] = uint64(j*clients+id), true
	}
	return c, nil
}

// genStream renders one client's operation stream. Writes pick keys of the
// client's own stripe, reads pick any key; an mput's four keys are redrawn
// until they span both shards, so it always runs the cross-shard commit.
func genStream(sz sizes, seed uint64, mix kvMix, id, clients int) []kvOp {
	rng := workloads.NewRand(seed*0x9E3779B97F4A7C15 + uint64(id) + 1)
	ring := shard.New(kvShards)
	anyKey := func() uint32 { return uint32(rng.Intn(sz.keys)) }
	ownKey := func() uint32 { return uint32(rng.Intn(sz.keys/clients)*clients + id) }
	ops := make([]kvOp, sz.streamLen)
	var q []byte
	for i := range ops {
		op := &ops[i]
		roll, kind := rng.Intn(100), 0
		for acc := mix[0]; roll >= acc; acc += mix[kind] {
			kind++
		}
		op.kind = uint8(kind)
		op.val = rng.Next()>>32 + 1
		q = q[:0]
		switch kind {
		case kGet:
			op.keys[0] = anyKey()
			q = strconv.AppendUint(append(q, "key="...), uint64(op.keys[0]), 10)
		case kPut:
			op.keys[0] = ownKey()
			q = strconv.AppendUint(append(q, "key="...), uint64(op.keys[0]), 10)
			q = strconv.AppendUint(append(q, "&val="...), op.val, 10)
		case kCas, kDel:
			op.keys[0] = ownKey()
			q = strconv.AppendUint(append(q, "key="...), uint64(op.keys[0]), 10)
		case kMput:
			for {
				for j := range op.keys {
					op.keys[j] = ownKey()
				}
				if len(ring.Participants(keys64(op.keys[:]))) == kvShards && distinct(op.keys[:]) {
					break
				}
			}
			q = appendList(append(q, "keys="...), op.keys[:])
			q = append(q, "&vals="...)
			for j := range op.keys {
				if j > 0 {
					q = append(q, ',')
				}
				q = strconv.AppendUint(q, op.val+uint64(j), 10)
			}
		case kMget:
			for j := range op.keys {
				op.keys[j] = anyKey()
			}
			q = appendList(append(q, "keys="...), op.keys[:])
		case kRange:
			op.keys[0] = uint32(rng.Intn(sz.keys - rangeSpan))
			q = strconv.AppendUint(append(q, "lo="...), uint64(op.keys[0]), 10)
			q = strconv.AppendUint(append(q, "&hi="...), uint64(op.keys[0])+rangeSpan-1, 10)
		}
		op.query = string(q)
	}
	return ops
}

func appendList(q []byte, keys []uint32) []byte {
	for j, k := range keys {
		if j > 0 {
			q = append(q, ',')
		}
		q = strconv.AppendUint(q, uint64(k), 10)
	}
	return q
}

func keys64(keys []uint32) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = uint64(k)
	}
	return out
}

func distinct(keys []uint32) bool {
	for i := range keys {
		for j := 0; j < i; j++ {
			if keys[i] == keys[j] {
				return false
			}
		}
	}
	return true
}

func (e *kvEnv) callers() []caller {
	out := make([]caller, len(e.clients))
	for i, c := range e.clients {
		out[i] = c
	}
	return out
}

// verify is the end-of-run check: every client's stripe matches its shadow,
// and a census of the whole key range finds exactly the keys the shadows say
// exist. It returns checks attempted and failed.
func (e *kvEnv) verify() (attempted, failed uint64) {
	var want uint64
	for _, c := range e.clients {
		a, f, present := c.verifyStripe(e.keys)
		attempted, failed, want = attempted+a, failed+f, want+present
	}
	var got uint64
	tr := e.clients[0].tr
	for lo := 0; lo < e.keys; lo += censusSpan {
		attempted++
		code, body, err := tr.do(kRange, fmt.Sprintf("lo=%d&hi=%d", lo, lo+censusSpan-1))
		var r reply
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &r) != nil {
			failed++
			continue
		}
		got += r.Count
	}
	attempted++
	if got != want {
		failed++
	}
	return attempted, failed
}

// close stops the listener, the clients' connections and the server, and
// waits for each.
func (e *kvEnv) close() {
	for _, c := range e.clients {
		if w, ok := c.tr.(*wireTransport); ok {
			w.close()
		}
	}
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.hs.Shutdown(ctx) //nolint:errcheck // the server is being discarded
		cancel()
		<-e.served
	}
	e.srv.Close() //nolint:errcheck // the server is being discarded
}
