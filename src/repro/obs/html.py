"""The one self-contained HTML page shell of the obs renderers.

The analysis dashboard and the profile flamegraph are both single-file
pages: inline CSS/JS, every payload embedded in a
``<script type="application/json">`` block, no network requests, no
external assets, openable from disk, byte-identical for identical
input. :func:`render_page` owns what they share — the ``<!DOCTYPE>``
skeleton, the light/dark theme variables (``data-theme`` override plus
``prefers-color-scheme``), the card / tooltip / button CSS, the
theme-toggle JS and the ``</``-safe JSON embedding — so a page supplies
only its own markup, styles, payloads and a ``render()`` function.
"""

from __future__ import annotations

import json
from typing import Mapping

__all__ = ["render_page"]

#: Theme variables every page gets (name -> light value, dark value).
_THEME = {
    "surface-1": ("#fcfcfb", "#1a1a19"),
    "page": ("#f9f9f7", "#0d0d0d"),
    "text-primary": ("#0b0b0b", "#ffffff"),
    "text-secondary": ("#52514e", "#c3c2b7"),
    "text-muted": ("#898781", "#898781"),
    "grid": ("#e1e0d9", "#2c2c2a"),
    "border": ("rgba(11, 11, 11, 0.10)", "rgba(255, 255, 255, 0.10)"),
}

_BASE_CSS = """
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin: 0 0 18px;
}
button {
  background: var(--surface-1); color: var(--text-secondary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 10px; cursor: pointer; font-size: 12px;
}
#theme-toggle { float: right; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 6px 9px; font-size: 12px; max-width: 320px;
  box-shadow: 0 2px 10px rgba(0, 0, 0, 0.18);
}
"""

#: Runs before the page script: the theme probe its colors depend on.
_JS_HEAD = """
'use strict';
function isDark() {
  var forced = document.documentElement.getAttribute('data-theme');
  if (forced) return forced === 'dark';
  return window.matchMedia &&
    window.matchMedia('(prefers-color-scheme: dark)').matches;
}
"""

#: Runs after the page script, which must define ``render()``: first
#: paint, and a repaint whenever the theme flips.
_JS_TAIL = """
document.getElementById('theme-toggle').addEventListener(
  'click', function () {
    document.documentElement.setAttribute(
      'data-theme', isDark() ? 'light' : 'dark');
    render();
  });
if (window.matchMedia) {
  window.matchMedia('(prefers-color-scheme: dark)')
    .addEventListener('change', render);
}
render();
"""


def _embed_json(payload: object) -> str:
    """Canonical JSON safe for inline ``<script>`` embedding."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text.replace("</", "<\\/")


def _theme_css(theme: Mapping[str, tuple]) -> str:
    """The three variable blocks: light, forced dark, system dark."""
    light = "".join(f"  --{k}: {v[0]};\n" for k, v in theme.items())
    dark = "".join(f"  --{k}: {v[1]};\n" for k, v in theme.items())
    return (
        f":root {{\n  color-scheme: light;\n{light}}}\n"
        f':root[data-theme="dark"] {{\n  color-scheme: dark;\n{dark}}}\n'
        "@media (prefers-color-scheme: dark) {\n"
        f':root:not([data-theme="light"]) {{\n'
        f"  color-scheme: dark;\n{dark}}}\n}}"
    )


def render_page(
    title: str,
    subtitle: str,
    body: str,
    data: Mapping[str, object],
    css: str,
    js: str,
    theme: Mapping[str, tuple],
) -> str:
    """One self-contained HTML page.

    ``body`` is the markup under the title inside ``<main>``; ``data``
    maps element ids to payloads, each embedded as a JSON script block
    the page script reads back; ``css`` is appended to the shared
    styles (so it may override them); ``js`` must define ``render()``;
    ``theme`` adds page-specific ``name -> (light, dark)`` variables to
    the shared set.
    """
    blocks = "\n".join(
        f'<script type="application/json" id="{key}">'
        f"{_embed_json(payload)}</script>"
        for key, payload in data.items()
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title}</title>
<style>
{_theme_css({**_THEME, **theme})}{_BASE_CSS}{css}</style>
</head>
<body>
<main>
  <button id="theme-toggle" type="button">light/dark</button>
  <h1>{title}</h1>
  <p class="subtitle">{subtitle}</p>
{body}</main>
<div id="tooltip" role="status"></div>
{blocks}
<script>{_JS_HEAD}{js}{_JS_TAIL}</script>
</body>
</html>
"""
