#!/usr/bin/env python3
"""Guard against drift between the wire/HTTP surface and its docs.

Cross-checks, in both directions:

* every `Request` variant in crates/bdi-serve/src/protocol.rs has a
  backticked mention in docs/PROTOCOL.md, and every request command the
  doc documents as a `### `cmd`` heading exists in the enum;
* every `Response` variant likewise;
* every route the HTTP index endpoint advertises (http.rs `index()`)
  is documented in docs/HTTP_API.md, and every per-endpoint metric
  label (`HTTP_ENDPOINTS`) appears there too;
* the per-command metrics row in PROTOCOL.md names every request
  command (the instrumentation registers one histogram per command);
* every binary opcode in crates/bdi-serve/src/frame.rs (`OP_*` consts
  and the `OPCODES` name table) appears in PROTOCOL.md's "Binary
  frames" opcode tables with the matching hex value, and the doc
  tables name no opcode the code lacks;
* the tracing surface: every span name the tracer records (the string
  literals at `root`/`adopt`/`begin`/`record` call sites, plus the
  request-span name each tier hands its `RequestCore`) is named in
  PROTOCOL.md's span vocabulary, the `trace-context` feature string
  and `FLAG_TRACE` bit match between code and PROTOCOL.md, and the
  `X-Bdi-Trace` header is documented in HTTP_API.md;
* the candidate-pruning counters: every `serve.engine.candidates.*`
  and `serve.linkage.postings.*` counter the server registers has a
  backticked row in PROTOCOL.md's metric-family table, and the table
  names no pruning counter the code no longer registers;
* the CLI flags: every flag a `bdi` subcommand reads (the `COMMANDS`
  table in src/bin/bdi.rs, which is also what the parser enforces)
  appears in that subcommand's `USAGE` lines and in
  docs/OPERATIONS.md or a crate README, `USAGE` names no flag that no
  subcommand reads, and no `bdi <subcommand> ...` command line in the
  docs, the verify skill or the CI workflow passes a flag that
  subcommand would reject.

Run from the repo root: `python3 scripts/check_docs_drift.py`.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL_RS = ROOT / "crates/bdi-serve/src/protocol.rs"
FRAME_RS = ROOT / "crates/bdi-serve/src/frame.rs"
HTTP_RS = ROOT / "crates/bdi-serve/src/http.rs"
PROTOCOL_MD = ROOT / "docs/PROTOCOL.md"
HTTP_API_MD = ROOT / "docs/HTTP_API.md"

errors = []


def check(cond, msg):
    if not cond:
        errors.append(msg)


def renames(source, enum_name):
    """serde rename strings of one enum's variants, in order."""
    m = re.search(
        rf"pub enum {enum_name} \{{(.*?)\n\}}", source, re.DOTALL
    )
    check(m, f"enum {enum_name} not found in {PROTOCOL_RS}")
    return re.findall(r'#\[serde\(rename = "(\w+)"\)\]', m.group(1)) if m else []


protocol_rs = PROTOCOL_RS.read_text()
protocol_md = PROTOCOL_MD.read_text()
http_rs = HTTP_RS.read_text()
http_api_md = HTTP_API_MD.read_text()

requests = renames(protocol_rs, "Request")
responses = renames(protocol_rs, "Response")
check(len(requests) >= 14, f"suspiciously few Request variants: {requests}")

# 1. every wire command/response is mentioned (backticked) in PROTOCOL.md
for cmd in requests:
    check(
        f"`{cmd}`" in protocol_md,
        f"request `{cmd}` exists on the wire but is not documented in PROTOCOL.md",
    )
for resp in responses:
    check(
        f"`{resp}`" in protocol_md,
        f"response `{resp}` exists on the wire but is not documented in PROTOCOL.md",
    )

# 2. every command the doc headlines actually exists on the wire
#    (headings look like "### `lookup` — ..." or "### `split` / `replace` — ...")
documented = set()
for heading in re.findall(r"^###\s+(.+)$", protocol_md, re.MULTILINE):
    documented.update(re.findall(r"`(\w+)`", heading))
known = set(requests) | set(responses)
for name in sorted(documented):
    check(
        name in known,
        f"PROTOCOL.md documents `{name}` but the wire enum has no such variant",
    )

# 3. the per-command metrics row names every request command
metrics_row = next(
    (
        line
        for line in protocol_md.splitlines()
        if "serve.request.<cmd>.latency_ns" in line
    ),
    "",
)
check(metrics_row, "PROTOCOL.md lost the serve.request.<cmd>.latency_ns metrics row")
for cmd in requests:
    check(
        f"`{cmd}`" in metrics_row,
        f"metrics row in PROTOCOL.md does not list per-command histogram for `{cmd}`",
    )

# 4. binary opcodes: frame.rs OP_* consts + the OPCODES name table must
#    match PROTOCOL.md's "Binary frames" opcode tables, both directions
frame_rs = FRAME_RS.read_text()
code_ops = {}  # name -> hex value, from the OP_* const declarations
for name, value in re.findall(
    r"pub const OP_(\w+): u8 = (0x[0-9A-Fa-f]{2});", frame_rs
):
    code_ops[name.lower()] = value.lower()
check(len(code_ops) >= 9, f"suspiciously few OP_* consts in frame.rs: {code_ops}")

table = re.search(r"pub const OPCODES[^=]*=\s*&\[(.*?)\];", frame_rs, re.DOTALL)
check(table, "OPCODES table not found in frame.rs")
table_names = re.findall(r'"(\w+)"', table.group(1)) if table else []
check(
    sorted(table_names) == sorted(code_ops),
    f"frame.rs OPCODES table {sorted(table_names)} disagrees with the "
    f"OP_* consts {sorted(code_ops)}",
)

doc_ops = {}  # name -> hex value, from the markdown opcode table rows
for value, name in re.findall(r"\|\s*`(0x[0-9A-Fa-f]{2})`\s*\|\s*`(\w+)`\s*\|", protocol_md):
    doc_ops[name] = value.lower()
for name, value in sorted(code_ops.items()):
    check(
        name in doc_ops,
        f"binary opcode `{name}` ({value}) exists in frame.rs but is missing "
        "from PROTOCOL.md's opcode tables",
    )
    if name in doc_ops:
        check(
            doc_ops[name] == value,
            f"opcode `{name}` is {value} in frame.rs but {doc_ops[name]} in PROTOCOL.md",
        )
for name in sorted(doc_ops):
    check(
        name in code_ops,
        f"PROTOCOL.md's opcode tables list `{name}` but frame.rs has no such opcode",
    )

# 5. HTTP routes advertised by GET / are documented in HTTP_API.md
for route in re.findall(r'\\"((?:GET|POST) /[^?\\"]*)', http_rs):
    check(
        route in http_api_md,
        f"http.rs index() advertises {route!r} but HTTP_API.md does not document it",
    )

# 6. every per-endpoint metric label appears in HTTP_API.md or PROTOCOL.md
m = re.search(r"HTTP_ENDPOINTS[^=]*=\s*\[(.*?)\]", http_rs, re.DOTALL)
check(m, "HTTP_ENDPOINTS not found in http.rs")
for label in re.findall(r'"(\w+)"', m.group(1)) if m else []:
    check(
        f"`{label}`" in http_api_md or f"`{label}`" in protocol_md,
        f"HTTP endpoint label `{label}` is not mentioned in HTTP_API.md or PROTOCOL.md",
    )

# 7. tracing: span names, feature string, frame flag, HTTP header
serve_sources = [
    p.read_text() for p in sorted((ROOT / "crates/bdi-serve/src").rglob("*.rs"))
]
span_names = set()
for src in serve_sources:
    # tracer call sites: root(name) / adopt(ctx, name) / begin(ctx, name)
    # / record(ctx, name, ...) — the name is the first string argument
    span_names.update(
        re.findall(
            r'\.(?:root|adopt|begin|record)\(\s*(?:[*\w.()&]+,\s*)?"([a-z][a-z_.]+)"',
            src,
            re.DOTALL,
        )
    )
    # the engine-stage names are fed to record() from a (name, ns) array
    span_names.update(re.findall(r'\(\s*"([a-z][a-z_.]+)",\s*timings\.', src))
    # each tier names its request span where it builds its request core
    span_names.update(
        re.findall(r'RequestCore::new\([^;]*?"([a-z]+\.request)"', src, re.DOTALL)
    )
check(
    len(span_names) >= 12,
    f"suspiciously few tracer span names found in bdi-serve: {sorted(span_names)}",
)
check(
    "## Distributed tracing" in protocol_md,
    "PROTOCOL.md lost its 'Distributed tracing' section",
)
for name in sorted(span_names):
    check(
        f"`{name}`" in protocol_md,
        f"span `{name}` is recorded by the tracer but absent from "
        "PROTOCOL.md's span vocabulary",
    )

# 8. candidate-pruning counters: every registered serve.engine.candidates.*
#    / serve.linkage.* counter is documented, and the doc invents none.
#    (Counters with a `<cmd>`-style wildcard row are exempt; these are
#    exact names, so each needs its own backticked mention.)
server_rs = (ROOT / "crates/bdi-serve/src/server.rs").read_text()
# serve.linkage.comparisons predates pruning and is covered by the
# stats-counter wildcard row, so only the pruning families are exact
code_counters = set(
    re.findall(
        r'registry\.counter\("((?:serve\.engine\.candidates|serve\.linkage\.postings)\.[\w.]+)"\)',
        server_rs,
    )
)
check(
    "serve.engine.candidates.pruned.root" in code_counters
    and "serve.engine.candidates.pruned.bound" in code_counters,
    f"server.rs lost the candidate-pruning counters: {sorted(code_counters)}",
)
for counter_name in sorted(code_counters):
    check(
        f"`{counter_name}`" in protocol_md,
        f"counter `{counter_name}` is registered by the server but absent "
        "from PROTOCOL.md's metric-family table",
    )
doc_pruning = set(
    re.findall(
        r"`((?:serve\.engine\.candidates|serve\.linkage\.postings)\.[\w.]+)`",
        protocol_md,
    )
)
for counter_name in sorted(doc_pruning):
    check(
        counter_name in code_counters,
        f"PROTOCOL.md documents counter `{counter_name}` but the server "
        "no longer registers it",
    )

m = re.search(r'pub const FEATURE_TRACE: &str = "([\w-]+)";', server_rs)
check(m, "FEATURE_TRACE const not found in server.rs")
if m:
    feature = m.group(1)
    check(
        f"`{feature}`" in protocol_md or f"**`{feature}`**" in protocol_md,
        f"hello feature `{feature}` is not documented in PROTOCOL.md",
    )

frame_doc_header = frame_rs  # flags live in frame.rs
m = re.search(r"pub const FLAG_TRACE: u8 = (0x[0-9A-Fa-f]{2});", frame_doc_header)
check(m, "FLAG_TRACE const not found in frame.rs")
if m:
    check(
        f"`{m.group(1)}`" in protocol_md,
        f"frame flag FLAG_TRACE ({m.group(1)}) is not documented in PROTOCOL.md",
    )
m = re.search(r"pub const TRACE_EXT_LEN: usize = (\d+);", frame_doc_header)
check(m, "TRACE_EXT_LEN const not found in frame.rs")
if m:
    check(
        f"{m.group(1)}-byte" in protocol_md,
        f"the {m.group(1)}-byte trace extension is not documented in PROTOCOL.md",
    )

check(
    "X-Bdi-Trace" in http_rs,
    "http.rs lost the X-Bdi-Trace header handling",
)
for doc, path in [(http_api_md, HTTP_API_MD), (protocol_md, PROTOCOL_MD)]:
    check(
        "X-Bdi-Trace" in doc,
        f"the X-Bdi-Trace header is not documented in {path.name}",
    )

# 9. CLI flags: the per-subcommand lists the parser enforces vs USAGE,
#    the operator docs and every documented / CI command line
bdi_rs = (ROOT / "src/bin/bdi.rs").read_text()
m = re.search(r"const COMMANDS:[^=]*=\s*&\[(.*?)\n\];", bdi_rs, re.DOTALL)
check(m, "COMMANDS table not found in src/bin/bdi.rs")
cli_flags = {}  # subcommand -> set of flags it reads
for cmd, flags in re.findall(
    r'\(\s*"([\w-]+)",\s*cmd_\w+,\s*&\[(.*?)\],?\s*\)',
    m.group(1) if m else "",
    re.DOTALL,
):
    cli_flags[cmd] = set(re.findall(r'"([\w-]+)"', flags))
check(len(cli_flags) >= 8, f"suspiciously few bdi subcommands: {sorted(cli_flags)}")
all_flags = set().union(*cli_flags.values()) if cli_flags else set()

m = re.search(r'const USAGE: &str = "\\\n(.*?)";', bdi_rs, re.DOTALL)
check(m, "USAGE text not found in src/bin/bdi.rs")
usage = m.group(1) if m else ""
FLAG = r"--([a-z][\w-]*)"
for cmd, flags in sorted(cli_flags.items()):
    # the subcommand's synopsis: its `  bdi <cmd>` line plus the more
    # deeply indented continuation lines under it
    block = re.search(rf"^  bdi {cmd}\b.*(?:\n {{4,}}\S.*)*", usage, re.MULTILINE)
    check(block, f"USAGE has no synopsis line for `bdi {cmd}`")
    synopsis = set(re.findall(FLAG, block.group(0))) if block else set()
    for flag in sorted(flags - synopsis):
        errors.append(f"`bdi {cmd}` reads --{flag} but its USAGE synopsis omits it")
    for flag in sorted(synopsis - flags):
        errors.append(
            f"USAGE lists --{flag} for `bdi {cmd}` but the subcommand does not read it"
        )
for flag in sorted(set(re.findall(FLAG, usage)) - all_flags):
    errors.append(f"USAGE mentions --{flag} but no subcommand reads it")

flag_docs = [
    ROOT / "docs/OPERATIONS.md",
    ROOT / "crates/bdi-serve/README.md",
    ROOT / "README.md",
]
documented_flags = set()
for path in flag_docs:
    documented_flags.update(re.findall(FLAG, path.read_text()))
for flag in sorted(all_flags - documented_flags):
    errors.append(
        f"--{flag} is read by the CLI but documented in none of "
        + ", ".join(str(p.relative_to(ROOT)) for p in flag_docs)
    )

# every `bdi <subcommand> ...` command line, wherever it is written down
command_docs = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "ROADMAP.md"]
    + list((ROOT / "docs").glob("*.md"))
    + list((ROOT / "crates").glob("*/README.md"))
    + list((ROOT / ".claude").rglob("*.md"))
    + list((ROOT / ".github/workflows").glob("*.yml"))
)
subcommands = "|".join(sorted(cli_flags))
for path in command_docs:
    # join shell continuation lines so a command is one logical line
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    for cmd, rest in re.findall(
        rf"\bbdi(?: --)? +({subcommands})\b([^\n]*)", text
    ):
        # the command's own arguments end at a pipe, a chained command,
        # a comment, or the closing backtick of inline code
        args = re.split(r"[|;`#]|&&", rest, maxsplit=1)[0]
        for flag in re.findall(FLAG, args):
            check(
                flag in cli_flags[cmd],
                f"{path.relative_to(ROOT)} runs `bdi {cmd}` with --{flag}, "
                "which that subcommand does not read",
            )

if errors:
    for e in errors:
        print(f"::error::{e}")
    sys.exit(1)
print(
    f"docs in sync: {len(requests)} wire commands, {len(responses)} responses, "
    f"{len(code_ops)} binary opcodes, {len(span_names)} trace span names, "
    f"{len(all_flags)} CLI flags across {len(cli_flags)} subcommands, "
    "HTTP index routes and endpoint labels all documented"
)
