package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestMsgTypeListInSync re-derives the message vocabulary from
// protocol.go's MsgType constants and compares it with Types, so a
// type added to the protocol without joining the list (and so without
// reaching the per-daemon conformance test) fails here.
func TestMsgTypeListInSync(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatalf("parse protocol.go: %v", err)
	}
	declared := map[MsgType]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "MsgType" {
				continue
			}
			for i, name := range vs.Names {
				v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				declared[MsgType(v)] = name.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no MsgType constants found in protocol.go")
	}
	listed := map[MsgType]bool{}
	for _, typ := range Types {
		if listed[typ] {
			t.Errorf("Types lists %s twice", typ)
		}
		listed[typ] = true
		if _, ok := declared[typ]; !ok {
			t.Errorf("Types lists %s, which protocol.go does not declare", typ)
		}
	}
	for typ, name := range declared {
		if !listed[typ] {
			t.Errorf("%s (%s) is declared but missing from Types", name, typ)
		}
	}
}

// TestIsReply pins the request/reply split: ACK, ERROR, the *_REPLY
// types and the three answers the remote-syscall protocol returns.
func TestIsReply(t *testing.T) {
	replies := map[MsgType]bool{
		TypeQueryReply: true, TypeClaimReply: true, TypeChalReply: true,
		TypeAck: true, TypeError: true, TypeSysFd: true, TypeSysData: true,
		TypeCkptData: true, TypeLeaseReply: true,
	}
	for _, typ := range Types {
		if got := typ.IsReply(); got != replies[typ] {
			t.Errorf("%s.IsReply() = %v, want %v", typ, got, replies[typ])
		}
	}
}

// TestIsLifecycle pins the five types whose envelopes must carry the
// job's trace.
func TestIsLifecycle(t *testing.T) {
	lifecycle := map[MsgType]bool{
		TypeMatch: true, TypeClaim: true, TypeRelease: true, TypePreempt: true, TypeJobDone: true,
	}
	for _, typ := range Types {
		if got := typ.IsLifecycle(); got != lifecycle[typ] {
			t.Errorf("%s.IsLifecycle() = %v, want %v", typ, got, lifecycle[typ])
		}
	}
}
