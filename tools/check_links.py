#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation set.

Walks every markdown file given on the command line (CI passes
README.md and docs/*.md), extracts inline links and images
(``[text](target)``), and fails when a *local* target is broken:

  - relative file links must resolve to an existing file or directory
    (relative to the file containing the link);
  - intra-document anchors (``#section``) must match a heading in the
    target file, using GitHub's slug rules (lowercase, spaces to
    hyphens, punctuation dropped);
  - bare ``#anchor`` links are checked against the current file.

External links (http://, https://, mailto:) are NOT fetched — CI must
stay hermetic — but malformed ones (empty target, whitespace) still
fail. Fenced code blocks and inline code spans are ignored so protocol
examples like ``[4]`` or ``key=value`` snippets never false-positive.

Dependency-free by design (re/argparse only), like check_obs.py.

Usage:
  tools/check_links.py README.md docs/*.md
"""

import argparse
import os
import re
import sys

# [text](target) — not preceded by '!'? Images use the same resolution
# rules, so we accept both and strip the leading '!'.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading):
    """GitHub's anchor slug: lowercase, strip punctuation, hyphens."""
    text = CODE_SPAN_RE.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"[^\w\- ]", "", text.strip().lower())
    return text.replace(" ", "-")


def strip_code(lines):
    """Blank out fenced code blocks and inline code spans."""
    out = []
    in_fence = False
    for line in lines:
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else CODE_SPAN_RE.sub("", line))
    return out


def headings_of(path, cache):
    if path not in cache:
        slugs = set()
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read().splitlines()
        except OSError:
            cache[path] = slugs
            return slugs
        for line in strip_code(raw):
            m = HEADING_RE.match(line)
            if m:
                slugs.add(github_slug(m.group(1)))
        cache[path] = slugs
    return cache[path]


def check_file(path, heading_cache):
    failures = []
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    for lineno, line in enumerate(strip_code(raw), 1):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            where = "%s:%d" % (path, lineno)
            if not target:
                failures.append("%s: empty link target" % where)
                continue
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            base, _, anchor = target.partition("#")
            if base:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path) or ".", base))
                if not os.path.exists(resolved):
                    failures.append("%s: broken link %r (no %s)"
                                    % (where, target, resolved))
                    continue
            else:
                resolved = path
            if anchor and resolved.endswith(".md"):
                slugs = headings_of(resolved, heading_cache)
                if anchor.lower() not in slugs:
                    failures.append(
                        "%s: broken anchor %r (no heading in %s)"
                        % (where, target, resolved))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="check local markdown links resolve")
    parser.add_argument("files", nargs="+", help="markdown files")
    args = parser.parse_args()

    heading_cache = {}
    failures = []
    checked = 0
    for path in args.files:
        failures.extend(check_file(path, heading_cache))
        checked += 1
    for f in failures:
        print("check_links: FAIL %s" % f)
    if failures:
        return 1
    print("check_links: %d files ok" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
