"""Self-contained single-file flamegraph HTML for profile artifacts.

:func:`render_flamegraph` turns one :class:`~.profile.Profile` into a
single HTML page with inline CSS/JS and the collapsed stacks embedded
in a ``<script type="application/json">`` block — no network
requests, no external assets, openable from disk (the same
conventions as the analysis dashboard). Output is deterministic:
identical profiles render byte-identical HTML.

The JS builds the frame tree client-side from the folded stacks
(``a;b;c`` → nested frames with self + cumulative weight), lays it
out as absolutely-positioned divs (width ∝ time share), and supports
hover details, click-to-zoom, a substring search highlight and the
shared light/dark theme toggle. Colors come from a small warm ramp
hashed on the frame name so a function keeps its color across zooms
and between two flamegraphs of the same code.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..html import render_page
from .profile import Profile

__all__ = ["render_flamegraph"]

#: Page-specific theme variables (light, dark) on top of the shell's.
_THEME = {
    "frame-text": ("#1d1309", "#140d05"),
    "match": ("#2a78d6", "#3987e5"),
}

_CSS = """
main { max-width: 1200px; }
.subtitle { margin-bottom: 16px; }
#controls { display: flex; gap: 10px; align-items: center;
  margin: 0 0 12px; flex-wrap: wrap; }
#search {
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 10px; font-size: 13px; min-width: 220px;
}
#flame { position: relative; width: 100%; }
.frame {
  position: absolute; height: 17px; overflow: hidden;
  white-space: nowrap; font-size: 11px; line-height: 17px;
  padding: 0 3px; border-radius: 2px; cursor: pointer;
  color: var(--frame-text);
  border: 1px solid var(--page);
}
.frame.match { outline: 2px solid var(--match); z-index: 2; }
.frame.dim { opacity: 0.35; }
#status { color: var(--text-muted); font-size: 12px; margin-top: 8px; }
#tooltip { max-width: 480px; font-variant-numeric: tabular-nums; }
"""

#: Warm ramp (light, dark) hashed on frame name — classic flame hues.
_PALETTE = [
    ("#f2a65a", "#d98a3f"),
    ("#ef8b4f", "#cf7336"),
    ("#f5b971", "#dd9c4e"),
    ("#ea7a45", "#c9642f"),
    ("#f6c98a", "#e0ac5f"),
    ("#ec9a5e", "#cc8042"),
]

_JS = """
var data = JSON.parse(
  document.getElementById('profile-data').textContent);
var PALETTE = JSON.parse(
  document.getElementById('palette-data').textContent);

function frameColor(name) {
  var hash = 0;
  for (var i = 0; i < name.length; i++) {
    hash = ((hash << 5) - hash + name.charCodeAt(i)) | 0;
  }
  var slot = Math.abs(hash) % PALETTE.length;
  return PALETTE[slot][isDark() ? 1 : 0];
}

// Build the frame tree from folded stacks.
function newNode(name) {
  return {name: name, value: 0, children: {}};
}
var root = newNode('all');
Object.keys(data.stacks).sort().forEach(function (stack) {
  var weight = data.stacks[stack];
  var frames = stack.split(';');
  var node = root;
  root.value += weight;
  frames.forEach(function (name) {
    if (!node.children[name]) node.children[name] = newNode(name);
    node = node.children[name];
    node.value += weight;
  });
});

var flame = document.getElementById('flame');
var tooltip = document.getElementById('tooltip');
var statusLine = document.getElementById('status');
var zoomNode = root;
var ROW = 18;

function fmt(seconds) {
  if (data.mode === 'sample') {
    return (seconds / data.interval).toFixed(0) + ' samples';
  }
  return seconds.toFixed(4) + 's';
}

function depthOf(node) {
  var max = 0;
  Object.keys(node.children).forEach(function (key) {
    var d = depthOf(node.children[key]) + 1;
    if (d > max) max = d;
  });
  return max;
}

function render() {
  flame.innerHTML = '';
  var total = zoomNode.value || 1;
  var width = flame.clientWidth || 960;
  var query = document.getElementById('search').value.toLowerCase();
  var matched = 0;
  flame.style.height = ((depthOf(zoomNode) + 1) * ROW + 4) + 'px';
  function place(node, x, depth) {
    var w = node.value / total * width;
    if (w < 0.4) return;
    var div = document.createElement('div');
    div.className = 'frame';
    div.style.left = x + 'px';
    div.style.top = (depth * ROW) + 'px';
    div.style.width = Math.max(w - 1, 1) + 'px';
    div.style.background = frameColor(node.name);
    div.textContent = w > 28 ? node.name : '';
    var lower = node.name.toLowerCase();
    if (query && lower.indexOf(query) !== -1) {
      div.className += ' match';
      matched += node.value;
    } else if (query) {
      div.className += ' dim';
    }
    div.addEventListener('mousemove', function (evt) {
      tooltip.textContent = node.name + ' — ' + fmt(node.value) +
        ' (' + (node.value / (root.value || 1) * 100).toFixed(1) +
        '% of all)';
      tooltip.style.display = 'block';
      var tx = Math.min(evt.clientX + 14, window.innerWidth - 490);
      tooltip.style.left = tx + 'px';
      tooltip.style.top = (evt.clientY + 14) + 'px';
    });
    div.addEventListener('mouseleave', function () {
      tooltip.style.display = 'none';
    });
    div.addEventListener('click', function () {
      zoomNode = node;
      render();
    });
    flame.appendChild(div);
    var cx = x;
    Object.keys(node.children).sort().forEach(function (key) {
      var child = node.children[key];
      place(child, cx, depth + 1);
      cx += child.value / total * width;
    });
  }
  place(zoomNode, 0, 0);
  var parts = ['total ' + fmt(root.value)];
  if (zoomNode !== root) {
    parts.push('zoom: ' + zoomNode.name + ' (' + fmt(zoomNode.value) +
      ')');
  }
  if (query) parts.push('matched ' + fmt(matched));
  statusLine.textContent = parts.join(' · ');
}

document.getElementById('reset').addEventListener('click', function () {
  zoomNode = root;
  document.getElementById('search').value = '';
  render();
});
document.getElementById('search').addEventListener('input', render);
window.addEventListener('resize', render);
"""

_BODY = """\
  <div class="card">
    <div id="controls">
      <input id="search" type="search"
             placeholder="highlight functions (substring)">
      <button id="reset" type="button">reset zoom</button>
    </div>
    <div id="flame"></div>
    <div id="status"></div>
  </div>
"""


def render_flamegraph(
    profile: Profile, title: Optional[str] = None
) -> str:
    """Render one profile as a self-contained flamegraph HTML page."""
    if title is None:
        title = profile.name
    payload: Dict[str, object] = {
        "name": profile.name,
        "mode": profile.mode,
        "seconds": round(profile.seconds, 9),
        "interval": float(profile.meta.get("interval", 0.01) or 0.01),
        "stacks": {
            k: round(v, 9) for k, v in sorted(profile.stacks.items())
        },
    }
    subtitle = (
        f"{profile.name} — {profile.mode} capture, "
        f"{profile.seconds:.3f}s wall, "
        f"{len(profile.stacks)} stacks"
    )
    return render_page(
        title,
        subtitle,
        _BODY,
        {"profile-data": payload, "palette-data": _PALETTE},
        _CSS,
        _JS,
        _THEME,
    )
