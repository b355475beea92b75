package classad

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent parser for the classad expression and
// ad grammar used in the paper's figures, with C-like operator
// precedence:
//
//	?:  <  ||  <  &&  <  == != is isnt  <  < <= > >=  <  + -  <  * / %
//	<  unary ! - +  <  postfix . [ ] ( )
//
// Reserved words (case-insensitive): true, false, undefined, error,
// is, isnt. The scope qualifiers self/my and other/target are ordinary
// identifiers given meaning when followed by a dot.
type parser struct {
	lx   *lexer
	tok  token // current token
	peek *token
	// pending stacks the attributes of the ads being parsed, innermost
	// last: an ad is built when its last attribute is known, at its
	// exact size.
	pending []parsedAttr
}

// parsedAttr is one parsed "name = expr" binding awaiting its ad.
type parsedAttr struct {
	name string
	expr Expr
	pos  Pos
}

// buildAd builds the ad whose attributes are p.pending[start:] and
// pops them.
func (p *parser) buildAd(start int) *Ad {
	attrs := p.pending[start:]
	ad := newParsedAd(len(attrs))
	for _, at := range attrs {
		ad.setParsed(at.name, at.expr, at.pos)
	}
	clear(attrs)
	p.pending = p.pending[:start]
	return ad
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok, p.peek = *p.peek, nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peekTok returns the token after the current one without consuming.
func (p *parser) peekTok() (token, error) {
	if p.peek == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind, what string) error {
	if p.tok.kind != k {
		return p.errorf("expected %s, found %s", what, p.tok.describe())
	}
	return p.advance()
}

// identIs reports whether the current token is the given reserved
// word, compared case-insensitively.
func (p *parser) identIs(word string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, word)
}

// ParseExpr parses a single classad expression. Trailing input after
// the expression is an error.
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.tok.describe())
	}
	return e, nil
}

// MustParseExpr is ParseExpr that panics on error; for tests and
// package-level literals.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Parse parses a single classad. The ad may be written in the paper's
// bracketed form ("[ a = 1; b = 2 ]") or as a bare attribute list
// ("a = 1\nb = 2"), the long form printed by pool status tools.
// Trailing input after the ad is an error.
func Parse(src string) (*Ad, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var ad *Ad
	if p.tok.kind == tokLBracket {
		ad, err = p.parseAd()
	} else {
		ad, err = p.parseBareAd()
	}
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after classad", p.tok.describe())
	}
	return ad, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(src string) *Ad {
	ad, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return ad
}

// ParseMulti parses a sequence of bracketed classads separated only by
// whitespace, as produced when ads are streamed to a file.
func ParseMulti(src string) ([]*Ad, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []*Ad
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokLBracket {
			return nil, p.errorf("expected '[' to begin a classad, found %s", p.tok.describe())
		}
		ad, err := p.parseAd()
		if err != nil {
			return nil, err
		}
		out = append(out, ad)
	}
	return out, nil
}

// parseAd parses a bracketed ad: '[' (name '=' expr (';' name '=' expr)*)? ';'? ']'.
func (p *parser) parseAd() (*Ad, error) {
	if err := p.expect(tokLBracket, "'['"); err != nil {
		return nil, err
	}
	start := len(p.pending)
	for p.tok.kind != tokRBracket {
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected attribute name, found %s", p.tok.describe())
		}
		name, npos := p.tok.text, Pos{Line: p.tok.line, Col: p.tok.col}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokAssign, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.pending = append(p.pending, parsedAttr{name, e, npos})
		if p.tok.kind == tokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expect(tokRBracket, "']' or ';'"); err != nil {
		return nil, err
	}
	return p.buildAd(start), nil
}

// parseBareAd parses an unbracketed attribute list running to EOF.
// Attributes may be separated by semicolons or simply by the start of
// the next "name =" binding.
func (p *parser) parseBareAd() (*Ad, error) {
	start := len(p.pending)
	for p.tok.kind != tokEOF {
		if p.tok.kind == tokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected attribute name, found %s", p.tok.describe())
		}
		name, npos := p.tok.text, Pos{Line: p.tok.line, Col: p.tok.col}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokAssign, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.pending = append(p.pending, parsedAttr{name, e, npos})
	}
	return p.buildAd(start), nil
}

// parseExpr parses a full expression (lowest precedence: ?:).
func (p *parser) parseExpr() (Expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokQuestion {
		return cond, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return condExpr{cond, then, els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{OpOr, l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{OpAnd, l, r}
	}
	return l, nil
}

func (p *parser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.tok.kind == tokEq:
			op = OpEq
		case p.tok.kind == tokNe:
			op = OpNe
		case p.identIs("is"):
			op = OpIs
		case p.identIs("isnt"):
			op = OpIsnt
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
}

func (p *parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.tok.kind {
		case tokLt:
			op = OpLt
		case tokLe:
			op = OpLe
		case tokGt:
			op = OpGt
		case tokGe:
			op = OpGe
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.tok.kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.tok.kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		case tokPercent:
			op = OpMod
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.tok.kind {
	case tokNot:
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{OpNot, arg}, nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals so that "-5" is the
		// literal -5, which keeps unparsing tidy.
		if lit, ok := arg.(litExpr); ok {
			if i, ok := lit.v.IntVal(); ok {
				return litExpr{Int(-i)}, nil
			}
			if r, ok := lit.v.RealVal(); ok {
				return litExpr{Real(-r)}, nil
			}
		}
		return unaryExpr{OpNeg, arg}, nil
	case tokPlus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		arg, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{OpPlus, arg}, nil
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary expression followed by any number of
// .name selections and [index] subscripts.
func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.tok.kind {
		case tokDot:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokIdent {
				return nil, p.errorf("expected attribute name after '.', found %s", p.tok.describe())
			}
			name := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			// self.X / other.X are scoped references, not
			// record selection, when the base is the bare
			// qualifier identifier.
			if ref, ok := e.(attrRef); ok && ref.scope == ScopeNone {
				switch ref.key {
				case "self", "my":
					e = newAttrRef(ScopeSelf, name)
					continue
				case "other", "target":
					e = newAttrRef(ScopeOther, name)
					continue
				}
			}
			e = newSelect(e, name)
		case tokLBracket:
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBracket, "']'"); err != nil {
				return nil, err
			}
			e = indexExpr{e, idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokInt:
		v := Int(p.tok.ival)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{v}, nil
	case tokReal:
		v := Real(p.tok.rval)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{v}, nil
	case tokString:
		v := Str(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return litExpr{v}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		return p.parseList()
	case tokLBracket:
		ad, err := p.parseAd()
		if err != nil {
			return nil, err
		}
		return adExpr{ad}, nil
	case tokIdent:
		word := p.tok.text
		switch Fold(word) {
		case "true":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return litExpr{Bool(true)}, nil
		case "false":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return litExpr{Bool(false)}, nil
		case "undefined":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return litExpr{Undef()}, nil
		case "error":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return litExpr{Erroneous("error literal")}, nil
		}
		nxt, err := p.peekTok()
		if err != nil {
			return nil, err
		}
		if nxt.kind == tokLParen {
			return p.parseCall(word)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return newAttrRef(ScopeNone, word), nil
	}
	return nil, p.errorf("expected expression, found %s", p.tok.describe())
}

// parseList parses '{' (expr (',' expr)*)? ','? '}'.
func (p *parser) parseList() (Expr, error) {
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var elems []Expr
	for p.tok.kind != tokRBrace {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expect(tokRBrace, "'}' or ','"); err != nil {
		return nil, err
	}
	return newList(elems), nil
}

// parseCall parses name '(' (expr (',' expr)*)? ')'.
func (p *parser) parseCall(name string) (Expr, error) {
	if err := p.advance(); err != nil { // past name
		return nil, err
	}
	if err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var args []Expr
	for p.tok.kind != tokRParen {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expect(tokRParen, "')' or ','"); err != nil {
		return nil, err
	}
	return newCall(name, args), nil
}
