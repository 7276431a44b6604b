package hls

import (
	"fmt"
	"strings"
)

// attrList parses and renders the attribute lists of HLS tags
// (EXT-X-STREAM-INF, EXT-X-MEDIA): comma-separated KEY=VALUE pairs where
// values may be quoted strings containing commas.

// parseAttrList splits `KEY=VAL,KEY="quoted,val"` into a map.
func parseAttrList(s string) (map[string]string, error) {
	attrs := make(map[string]string)
	for i := 0; i < len(s); {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("hls: attribute without '=' in %q", s[i:])
		}
		key := strings.TrimSpace(s[i : i+eq])
		if key == "" {
			return nil, fmt.Errorf("hls: empty attribute name in %q", s)
		}
		i += eq + 1
		var val string
		if i < len(s) && s[i] == '"' {
			end := strings.IndexByte(s[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("hls: unterminated quoted value for %s", key)
			}
			val = s[i+1 : i+1+end]
			i += end + 2
			if i < len(s) && s[i] == ',' {
				i++
			}
		} else {
			end := strings.IndexByte(s[i:], ',')
			if end < 0 {
				val = s[i:]
				i = len(s)
			} else {
				val = s[i : i+end]
				i += end + 1
			}
		}
		attrs[key] = val
	}
	return attrs, nil
}

// attrWriter renders attributes in a stable order.
type attrWriter struct {
	parts []string
}

func (w *attrWriter) add(key, val string)       { w.parts = append(w.parts, key+"="+val) }
func (w *attrWriter) addQuoted(key, val string) { w.add(key, `"`+val+`"`) }
func (w *attrWriter) addInt(key string, v int64) {
	w.add(key, fmt.Sprintf("%d", v))
}

func (w *attrWriter) String() string { return strings.Join(w.parts, ",") }
