#!/usr/bin/env python3
"""Documentation health check, run by the CI docs job.

Four guarantees:
  1. Presence: the documentation entry points exist and README links
     to them (docs/ARCHITECTURE.md and docs/FORMATS.md are part of
     the repo's acceptance surface, not optional extras).
  2. Link integrity: every relative markdown link in every tracked
     .md file points at a path that exists, so file moves and
     renames cannot silently strand the docs.
  3. The runtime support matrix: docs/FORMATS.md must keep its
     "Runtime support matrix" section and the section must mention
     every registered packed codec, so a codec added to the runtime
     cannot ship undocumented.
  4. The environment-variable table: the M2X_* names that code under
     src/ reads with getenv must equal the rows of README's
     environment-variable table, so a deleted knob cannot leave a
     stale row and a new one cannot ship undocumented.

Exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

REQUIRED_DOCS = [
    "README.md",
    "BUILDING.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ARCHITECTURE.md",
    "docs/FORMATS.md",
    "docs/SERVING.md",
    "docs/OBSERVABILITY.md",
]

# README must reference the docs/ subsystem entry points.
REQUIRED_README_LINKS = [
    "docs/ARCHITECTURE.md",
    "docs/FORMATS.md",
    "docs/SERVING.md",
    "docs/OBSERVABILITY.md",
    "BUILDING.md",
]

# docs/FORMATS.md must document runtime support per packed codec.
# Keep in sync with the registry in src/core/packed_codec.cc.
MATRIX_HEADING = "## Runtime support matrix"
PACKED_CODECS = ["elem_em", "elem_ee", "sg_em", "m2_nvfp4"]

# Inline markdown links: [text](target). Reference-style links are
# not used in this repo.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# getenv("M2X_...") reads under src/, and README env-table rows.
GETENV_RE = re.compile(r'getenv\(\s*"(M2X_[A-Z0-9_]+)"')
ENV_ROW_RE = re.compile(r"^\|\s*`(M2X_[A-Z0-9_]+)`", re.MULTILINE)
SOURCE_SUFFIXES = {".cc", ".hh", ".cpp", ".h"}

# Directories that hold no tracked documentation.
SKIP_DIRS = {"build", "build-asan", ".git"}


def md_files():
    for path in sorted(REPO.rglob("*.md")):
        rel = path.relative_to(REPO)
        if rel.parts[0] in SKIP_DIRS:
            continue
        yield path


def check():
    problems = []

    for rel in REQUIRED_DOCS:
        if not (REPO / rel).is_file():
            problems.append(f"missing required doc: {rel}")

    readme = REPO / "README.md"
    readme_text = readme.read_text() if readme.is_file() else ""
    for target in REQUIRED_README_LINKS:
        if target not in readme_text:
            problems.append(f"README.md does not link {target}")

    formats = REPO / "docs/FORMATS.md"
    formats_text = formats.read_text() if formats.is_file() else ""
    if MATRIX_HEADING not in formats_text:
        problems.append(
            f"docs/FORMATS.md lacks the '{MATRIX_HEADING}' section")
    else:
        # Check codec coverage within the section (up to the next
        # same-level heading) so a row cannot quietly migrate out.
        section = formats_text.split(MATRIX_HEADING, 1)[1]
        section = section.split("\n## ", 1)[0]
        for codec in PACKED_CODECS:
            if f"`{codec}`" not in section:
                problems.append(
                    "docs/FORMATS.md runtime support matrix does "
                    f"not cover codec {codec}")

    read = set()
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix in SOURCE_SUFFIXES:
            read.update(GETENV_RE.findall(path.read_text()))
    documented = set(ENV_ROW_RE.findall(readme_text))
    for name in sorted(read - documented):
        problems.append(
            f"README.md environment-variable table lacks {name}, "
            "which src/ reads")
    for name in sorted(documented - read):
        problems.append(
            f"README.md environment-variable table documents {name}, "
            "which nothing under src/ reads")

    n_links = 0
    for path in md_files():
        rel = path.relative_to(REPO)
        for m in LINK_RE.finditer(path.read_text()):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure same-file anchor
            n_links += 1
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{rel}: broken relative link -> {m.group(1)}")

    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_docs: OK ({n_links} relative links verified, "
          f"{len(REQUIRED_DOCS)} required docs present)")
    return 0


if __name__ == "__main__":
    sys.exit(check())
