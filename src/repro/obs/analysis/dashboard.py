"""Self-contained single-file HTML dashboard for analysis reports.

:func:`render_dashboard` turns an :class:`~.findings.AnalysisReport`
dict into one HTML file with inline CSS/JS and the report JSON embedded
in a ``<script type="application/json">`` block — no network requests,
no external assets, openable from disk. The output is deterministic:
identical reports render byte-identical HTML.

Views: stat tiles (headline numbers), phase-stacked epoch-time bars per
partitioner (the paper's Figs. 19/21/22 shape), a per-machine heatmap
(busy time, traffic, memory — the straggler/balance view), per-engine
resource depth (the ``src x dst`` traffic-matrix heatmap, per-category
memory peaks and the per-phase memory-watermark timeline), the
traffic-vs-accuracy tradeoff table for comm sweeps (wire bytes, saved
fraction and accuracy-proxy error per comm config, Pareto-frontier
rows marked), the findings list, and a plain-table view of every
section the text and markdown renderers print (the same
:func:`~.render.report_sections` list, embedded next to the report).

The palette follows the repo's chart conventions: a fixed-order
categorical palette for phase identity (9th phase onward folds into
"other"), a single-hue sequential ramp for heatmap magnitude, reserved
status colors (with icon + text label, never color alone) for finding
severities, and light/dark variants selected via CSS custom properties.
"""

from __future__ import annotations

from typing import Dict

from ..html import render_page
from .render import report_sections

__all__ = ["render_dashboard"]

#: Fixed categorical slot order (light, dark) — assigned to phases by
#: first appearance, never cycled; overflow folds into "other".
_CATEGORICAL = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

#: Single-hue sequential ramp (blue), light -> dark, for heatmap cells.
_SEQUENTIAL = [
    "#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
    "#256abf", "#184f95", "#0d366b",
]

#: Page-specific theme variables (light, dark) on top of the shell's.
_THEME = {
    "baseline": ("#c3c2b7", "#383835"),
    "status-critical": ("#d03b3b", "#d03b3b"),
    "status-warning": ("#fab219", "#fab219"),
    "status-good": ("#0ca30c", "#0ca30c"),
}

_CSS = """
h2 { font-size: 15px; margin: 0 0 12px; }
#sections h2 { margin: 18px 0 8px; }
.tiles { display: flex; flex-wrap: wrap; gap: 18px; }
.tile { min-width: 150px; flex: 1; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .note { color: var(--text-muted); font-size: 12px; margin-top: 2px; }
.row { display: flex; align-items: center; gap: 10px; margin: 0 0 8px; }
.row .name {
  width: 110px; text-align: right; color: var(--text-secondary);
  font-size: 12px; overflow: hidden; text-overflow: ellipsis;
  white-space: nowrap; flex: none;
}
.row .bar {
  flex: 1; display: flex; height: 20px; gap: 2px;
  background: transparent;
}
.row .seg { height: 100%; }
.row .seg:last-child { border-radius: 0 4px 4px 0; }
.row .total {
  width: 78px; color: var(--text-muted); font-size: 12px; flex: none;
  font-variant-numeric: tabular-nums;
}
.legend {
  display: flex; flex-wrap: wrap; gap: 12px; margin: 10px 0 0;
  color: var(--text-secondary); font-size: 12px;
}
.legend .key { display: flex; align-items: center; gap: 5px; }
.legend .swatch {
  width: 10px; height: 10px; border-radius: 3px; display: inline-block;
}
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th {
  text-align: left; color: var(--text-secondary); font-weight: 500;
  border-bottom: 1px solid var(--baseline); padding: 4px 8px;
}
td {
  padding: 4px 8px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
td.cell { text-align: center; border-radius: 3px; }
.finding { display: flex; gap: 10px; padding: 7px 0; align-items: baseline;
  border-bottom: 1px solid var(--grid); }
.finding:last-child { border-bottom: none; }
.sev {
  font-size: 11px; font-weight: 600; flex: none; width: 86px;
  white-space: nowrap;
}
.sev.critical { color: var(--status-critical); }
.sev.warning { color: var(--status-warning); }
.sev.info { color: var(--text-muted); }
.finding .kind { color: var(--text-secondary); flex: none; width: 160px;
  font-size: 12px; overflow: hidden; text-overflow: ellipsis; }
.finding .msg { flex: 1; }
.empty { color: var(--text-muted); font-style: italic; }
details summary { cursor: pointer; color: var(--text-secondary);
  font-size: 13px; margin-bottom: 8px; }
"""

_JS = """
var report = JSON.parse(
  document.getElementById('report-data').textContent);
var CATEGORICAL = JSON.parse(
  document.getElementById('palette-data').textContent);
var SEQUENTIAL = JSON.parse(
  document.getElementById('ramp-data').textContent);
var SECTIONS = JSON.parse(
  document.getElementById('sections-data').textContent);

function seriesColor(slot) {
  return CATEGORICAL[slot][isDark() ? 1 : 0];
}

var tooltip = document.getElementById('tooltip');
function showTip(evt, text) {
  tooltip.textContent = text;
  tooltip.style.display = 'block';
  var x = Math.min(evt.clientX + 14, window.innerWidth - 330);
  tooltip.style.left = x + 'px';
  tooltip.style.top = (evt.clientY + 14) + 'px';
}
function hideTip() { tooltip.style.display = 'none'; }
function hover(el, textFn) {
  el.addEventListener('mousemove', function (evt) {
    showTip(evt, textFn());
  });
  el.addEventListener('mouseleave', hideTip);
}

function el(tag, cls, parent) {
  var node = document.createElement(tag);
  if (cls) node.className = cls;
  if (parent) parent.appendChild(node);
  return node;
}
function fmtSeconds(v) { return v.toPrecision(4) + 's'; }
function fmtPct(v) { return (100 * v).toFixed(1) + '%'; }

// Global phase -> slot assignment: fixed order of first appearance
// across every engine chart; past the palette, phases fold to "other".
function assignPhaseSlots() {
  var perPartitioner = report.attribution.per_partitioner || {};
  var order = [];
  Object.keys(perPartitioner).sort().forEach(function (engine) {
    var table = perPartitioner[engine];
    Object.keys(table).sort().forEach(function (partitioner) {
      Object.keys(table[partitioner].phase_seconds).forEach(
        function (phase) {
          if (order.indexOf(phase) < 0) order.push(phase);
        });
    });
  });
  var slots = {};
  order.forEach(function (phase, i) {
    slots[phase] = i < CATEGORICAL.length - 1
      ? i : CATEGORICAL.length - 1;  // last slot doubles as "other"
  });
  return { order: order, slots: slots };
}

function renderStacks() {
  var host = document.getElementById('stacks');
  var perPartitioner = report.attribution.per_partitioner || {};
  var engines = Object.keys(perPartitioner).sort();
  if (!engines.length) {
    el('p', 'empty', host).textContent =
      'No sweep records loaded - stacked phase bars need record JSON.';
    return;
  }
  var assignment = assignPhaseSlots();
  engines.forEach(function (engine) {
    var table = perPartitioner[engine];
    var card = el('div', 'card', host);
    el('h2', null, card).textContent =
      engine + ' - mean epoch seconds by partitioner, stacked by phase';
    var names = Object.keys(table).sort(function (a, b) {
      return table[a].mean_epoch_seconds - table[b].mean_epoch_seconds;
    });
    var maxTotal = 0;
    names.forEach(function (name) {
      maxTotal = Math.max(maxTotal, table[name].mean_epoch_seconds);
    });
    names.forEach(function (name) {
      var entry = table[name];
      var row = el('div', 'row', card);
      el('div', 'name', row).textContent = name;
      var bar = el('div', 'bar', row);
      var phases = Object.keys(entry.phase_seconds).sort(
        function (a, b) {
          return assignment.order.indexOf(a) -
            assignment.order.indexOf(b);
        });
      phases.forEach(function (phase) {
        var seconds = entry.phase_seconds[phase];
        if (seconds <= 0) return;
        var seg = el('div', 'seg', bar);
        seg.style.width =
          (100 * seconds / (maxTotal || 1)) + '%';
        seg.style.background =
          seriesColor(assignment.slots[phase]);
        hover(seg, function () {
          return name + ' / ' + phase + ': ' + fmtSeconds(seconds) +
            ' (' + fmtPct(entry.phase_fractions[phase] || 0) +
            ' of epoch, ' + entry.cells + ' cells)';
        });
      });
      el('div', 'total', row).textContent =
        fmtSeconds(entry.mean_epoch_seconds);
    });
    var legend = el('div', 'legend', card);
    assignment.order.forEach(function (phase) {
      var inEngine = names.some(function (name) {
        return phase in table[name].phase_seconds;
      });
      if (!inEngine) return;
      var key = el('span', 'key', legend);
      var swatch = el('span', 'swatch', key);
      swatch.style.background = seriesColor(assignment.slots[phase]);
      key.appendChild(document.createTextNode(phase));
    });
  });
}

var HEAT_COLUMNS = [
  ['busy_seconds', 'busy s'],
  ['bytes_sent', 'sent bytes'],
  ['bytes_received', 'received bytes'],
  ['lost_messages', 'lost msgs'],
  ['memory_peak_bytes', 'peak mem bytes'],
];

function heatColor(fraction) {
  var steps = SEQUENTIAL.length;
  var i = Math.min(steps - 1, Math.floor(fraction * steps));
  return SEQUENTIAL[i];
}

function renderHeatmap() {
  var host = document.getElementById('heatmap');
  var machines = report.attribution.machines || [];
  if (!machines.length) {
    el('p', 'empty', host).textContent =
      'No per-machine metrics loaded - the straggler heatmap needs a ' +
      'metrics snapshot (run with --obs-level metrics and an obs out).';
    return;
  }
  var columns = HEAT_COLUMNS.filter(function (col) {
    return machines.some(function (row) { return col[0] in row; });
  });
  var table = el('table', null, host);
  var head = el('tr', null, el('thead', null, table));
  el('th', null, head).textContent = 'machine';
  columns.forEach(function (col) {
    el('th', null, head).textContent = col[1];
  });
  var maxima = {};
  columns.forEach(function (col) {
    maxima[col[0]] = Math.max.apply(null, machines.map(function (row) {
      return row[col[0]] || 0;
    }));
  });
  var body = el('tbody', null, table);
  machines.forEach(function (row) {
    var tr = el('tr', null, body);
    el('td', null, tr).textContent = 'machine-' + row.machine;
    columns.forEach(function (col) {
      var value = row[col[0]] || 0;
      var fraction = maxima[col[0]] ? value / maxima[col[0]] : 0;
      var td = el('td', 'cell', tr);
      td.style.background = heatColor(fraction);
      td.style.color = fraction > 0.45 ? '#ffffff' : '#0b0b0b';
      td.textContent = value.toPrecision(3);
      hover(td, function () {
        return 'machine-' + row.machine + ' ' + col[1] + ': ' +
          value.toPrecision(6) + ' (' + fmtPct(fraction) +
          ' of busiest)';
      });
    });
  });
}

function fmtBytes(v) {
  if (v >= 1e9) return (v / 1e9).toPrecision(3) + ' GB';
  if (v >= 1e6) return (v / 1e6).toPrecision(3) + ' MB';
  if (v >= 1e3) return (v / 1e3).toPrecision(3) + ' kB';
  return v.toPrecision(3) + ' B';
}

// Generic heat table: rows x cols of magnitudes on the sequential
// ramp, each cell tooltipped with its exact value.
function heatTable(host, rowLabels, colLabels, values, cellText) {
  var table = el('table', null, host);
  var head = el('tr', null, el('thead', null, table));
  el('th', null, head).textContent = '';
  colLabels.forEach(function (label) {
    el('th', null, head).textContent = label;
  });
  var max = 0;
  values.forEach(function (row) {
    row.forEach(function (v) { max = Math.max(max, v); });
  });
  var body = el('tbody', null, table);
  rowLabels.forEach(function (label, i) {
    var tr = el('tr', null, body);
    el('td', null, tr).textContent = label;
    values[i].forEach(function (value, j) {
      var fraction = max ? value / max : 0;
      var td = el('td', 'cell', tr);
      td.style.background = value > 0 ? heatColor(fraction)
        : 'transparent';
      td.style.color = fraction > 0.45 ? '#ffffff'
        : 'var(--text-primary)';
      td.textContent = value > 0 ? cellText(value) : '\\u00b7';
      hover(td, function () {
        return label + ' \\u2192 ' + colLabels[j] + ': ' +
          cellText(value) + ' (' + fmtPct(fraction) + ' of max)';
      });
    });
  });
}

function renderResources() {
  var host = document.getElementById('resources');
  var resources = report.attribution.resources || {};
  var engines = Object.keys(resources).sort();
  if (!engines.length) {
    el('p', 'empty', host).textContent =
      'No resource-depth telemetry loaded - the traffic matrix and ' +
      'memory timeline need records swept with --obs-level metrics.';
    return;
  }
  engines.forEach(function (engine) {
    var entry = resources[engine];
    var machineLabels = [];
    for (var m = 0; m < entry.k; m++) machineLabels.push('m' + m);

    var card = el('div', 'card', host);
    el('h2', null, card).textContent = engine +
      ' - traffic matrix, bytes src \\u2192 dst (k=' + entry.k +
      ', summed over ' + entry.cells + ' cells)';
    heatTable(card, machineLabels, machineLabels,
      entry.traffic_matrix, fmtBytes);

    var categories = Object.keys(entry.memory_category_peaks || {});
    if (categories.length) {
      card = el('div', 'card', host);
      el('h2', null, card).textContent = engine +
        ' - per-machine memory peaks by ledger category (k=' +
        entry.k + ')';
      heatTable(card, categories, machineLabels,
        categories.map(function (c) {
          return entry.memory_category_peaks[c];
        }), fmtBytes);
    }

    var phases = Object.keys(entry.memory_timeline || {});
    if (phases.length) {
      card = el('div', 'card', host);
      el('h2', null, card).textContent = engine +
        ' - memory watermark by phase (k=' + entry.k +
        '; flat when all allocation happens at construction)';
      heatTable(card, phases, machineLabels,
        phases.map(function (p) { return entry.memory_timeline[p]; }),
        fmtBytes);
    }
  });
}

function renderTradeoff() {
  var host = document.getElementById('tradeoff');
  var tradeoff = report.attribution.comm_tradeoff || {};
  var engines = Object.keys(tradeoff).sort();
  if (!engines.length) {
    el('p', 'empty', host).textContent =
      'No comm sweep loaded - the traffic-vs-accuracy tradeoff needs ' +
      'records swept over --compression / --refresh-interval / ' +
      '--cache-fraction.';
    return;
  }
  engines.forEach(function (engine) {
    var byPartitioner = tradeoff[engine];
    var card = el('div', 'card', host);
    el('h2', null, card).textContent = engine +
      ' - traffic vs accuracy proxy by comm config ' +
      '(\\u2605 = Pareto frontier)';
    var table = el('table', null, card);
    var head = el('tr', null, el('thead', null, table));
    ['partitioner', 'comm config', 'wire/epoch', 'saved',
     'codec s/epoch', 'accuracy error', 'frontier'].forEach(
      function (title) { el('th', null, head).textContent = title; });
    var maxWire = 0;
    Object.keys(byPartitioner).forEach(function (name) {
      byPartitioner[name].forEach(function (point) {
        maxWire = Math.max(maxWire, point.wire_bytes);
      });
    });
    var body = el('tbody', null, table);
    Object.keys(byPartitioner).sort().forEach(function (name) {
      byPartitioner[name].forEach(function (point) {
        var tr = el('tr', null, body);
        el('td', null, tr).textContent = name;
        el('td', null, tr).textContent = point.comm;
        var wire = el('td', 'cell', tr);
        var fraction = maxWire ? point.wire_bytes / maxWire : 0;
        wire.style.background = point.wire_bytes > 0
          ? heatColor(fraction) : 'transparent';
        wire.style.color = fraction > 0.45 ? '#ffffff'
          : 'var(--text-primary)';
        wire.textContent = fmtBytes(point.wire_bytes);
        el('td', null, tr).textContent = fmtPct(point.saved_fraction);
        el('td', null, tr).textContent =
          point.codec_seconds.toPrecision(3);
        el('td', null, tr).textContent =
          point.accuracy_proxy_error.toPrecision(3);
        el('td', null, tr).textContent =
          point.on_frontier ? '\\u2605 yes' : '';
        hover(tr, function () {
          return name + ' [' + point.comm + ']: ' +
            fmtBytes(point.wire_bytes) + ' on the wire, ' +
            fmtBytes(point.saved_bytes) + ' saved per epoch over ' +
            point.cells + ' cells';
        });
      });
    });
  });
}

var SEVERITY_ICONS = { critical: '\\u25b2', warning: '\\u25c6',
  info: '\\u25cb' };

function renderFindings() {
  var host = document.getElementById('findings');
  var findings = report.findings || [];
  if (!findings.length) {
    el('p', 'empty', host).textContent =
      'No findings - nothing anomalous detected.';
    return;
  }
  findings.forEach(function (finding) {
    var row = el('div', 'finding', host);
    var sev = el('span', 'sev ' + finding.severity, row);
    sev.textContent = SEVERITY_ICONS[finding.severity] + ' ' +
      finding.severity.toUpperCase();
    el('span', 'kind', row).textContent = finding.kind;
    el('span', 'msg', row).textContent = finding.message;
    hover(row, function () {
      return finding.subject + ' - value ' + finding.value +
        (finding.threshold ? ', threshold ' + finding.threshold : '');
    });
  });
}

// Every table of the text / markdown renderers (render.report_sections).
function renderSections() {
  var host = document.getElementById('sections');
  SECTIONS.forEach(function (section) {
    el('h2', null, host).textContent = section[0];
    if (!section[2].length) return;
    var table = el('table', null, host);
    var head = el('tr', null, el('thead', null, table));
    section[1].forEach(function (title) {
      el('th', null, head).textContent = title;
    });
    var body = el('tbody', null, table);
    section[2].forEach(function (row) {
      var tr = el('tr', null, body);
      row.forEach(function (cell) {
        el('td', null, tr).textContent = cell;
      });
    });
  });
}

function renderTiles() {
  var host = document.getElementById('tiles');
  var summary = report.summary || {};
  var source = report.source || {};
  var tiles = [
    ['records analyzed', String(source.num_records || 0),
     (source.num_metrics || 0) + ' metric series, ' +
     (source.num_events || 0) + ' trace events'],
    ['total phase time',
     fmtSeconds(summary.total_phase_seconds || 0), 'simulated'],
    ['recovery share', fmtPct(summary.recovery_fraction || 0),
     'of phase time'],
    ['findings', String(summary.num_findings || 0),
     (summary.by_severity || {}).critical + ' critical, ' +
     (summary.by_severity || {}).warning + ' warning'],
  ];
  tiles.forEach(function (spec) {
    var tile = el('div', 'tile', host);
    el('div', 'label', tile).textContent = spec[0];
    el('div', 'value', tile).textContent = spec[1];
    el('div', 'note', tile).textContent = spec[2];
  });
}

function render() {
  ['stacks', 'heatmap', 'resources', 'tradeoff', 'findings',
   'sections', 'tiles'].forEach(
    function (id) { document.getElementById(id).innerHTML = ''; });
  renderTiles();
  renderStacks();
  renderHeatmap();
  renderResources();
  renderTradeoff();
  renderFindings();
  renderSections();
}
"""

_BODY = """\
  <div class="card tiles" id="tiles"></div>
  <div id="stacks"></div>
  <div class="card">
    <h2>Per-machine balance heatmap (straggler view)</h2>
    <div id="heatmap"></div>
  </div>
  <div id="resources"></div>
  <div id="tradeoff"></div>
  <div class="card">
    <h2>Findings</h2>
    <div id="findings"></div>
  </div>
  <div class="card">
    <details open>
      <summary>All report tables (no color required)</summary>
      <div id="sections"></div>
    </details>
  </div>
"""


def render_dashboard(
    report: Dict[str, object], title: str = "Telemetry analysis"
) -> str:
    """Render an analysis-report dict as one self-contained HTML page."""
    source = report.get("source", {})
    label = str(source.get("label", ""))
    return render_page(
        title,
        label,
        _BODY,
        {
            "report-data": report,
            "sections-data": report_sections(report),
            "palette-data": _CATEGORICAL,
            "ramp-data": _SEQUENTIAL,
        },
        _CSS,
        _JS,
        _THEME,
    )
