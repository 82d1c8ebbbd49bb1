package main

import (
	"strings"
	"testing"
)

func TestCheckMode(t *testing.T) {
	const ddl, q = "CREATE STREAM a (v INT)", "SELECT v FROM a"
	cases := []struct {
		name    string
		ddl, q  string
		ins     int
		opts    options
		wantErr string // substring; empty means the combination is accepted
	}{
		{name: "replay", ddl: ddl, q: q, ins: 1},
		{name: "listen", ddl: ddl, q: q, opts: options{listen: ":0"}},
		{name: "listen checkpointed", ddl: ddl, q: q, opts: options{listen: ":0", ckptDir: "d"}},
		{name: "listen restored", ddl: ddl, q: q, opts: options{listen: ":0", ckptDir: "d", restore: true}},
		{name: "worker", opts: options{worker: ":0"}},
		{name: "coordinator", ddl: ddl, q: q, opts: options{coordinator: "w1,w2", listen: ":0"}},

		{name: "no query", ddl: ddl, ins: 1, wantErr: "need -ddl, -q"},
		{name: "no input", ddl: ddl, q: q, wantErr: "need -ddl, -q"},
		{name: "coordinator without listen", ddl: ddl, q: q, opts: options{coordinator: "w1"}, wantErr: "-coordinator needs"},
		{name: "worker and coordinator", opts: options{worker: ":0", coordinator: "w1", listen: ":0"}, wantErr: "exclusive"},
		{name: "worker checkpointed", opts: options{worker: ":0", ckptDir: "d"}, wantErr: "not supported with -coordinator or -worker"},
		{name: "worker restored", opts: options{worker: ":0", restore: true}, wantErr: "not supported with -coordinator or -worker"},
		{name: "coordinator checkpointed", ddl: ddl, q: q, opts: options{coordinator: "w1", listen: ":0", ckptDir: "d"}, wantErr: "not supported with -coordinator or -worker"},
		{name: "coordinator restored", ddl: ddl, q: q, opts: options{coordinator: "w1", listen: ":0", ckptDir: "d", restore: true}, wantErr: "not supported with -coordinator or -worker"},
		{name: "replay checkpointed", ddl: ddl, q: q, ins: 1, opts: options{ckptDir: "d"}, wantErr: "need -listen"},
		{name: "restore without dir", ddl: ddl, q: q, opts: options{listen: ":0", restore: true}, wantErr: "-restore requires -ckpt-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkMode(tc.ddl, tc.q, tc.ins, tc.opts)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected a valid combination: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted; want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}
