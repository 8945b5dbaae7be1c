#!/usr/bin/env python3
"""§2.2 as a running component: origin → edge proxy → mixed clients.

The proxy pulls prompt-form pages from the origin (prompt-sized upstream
traffic, prompt-sized edge storage), forwards prompts to SWW-capable
clients, and generates media on its own hardware for naive ones. Prints
the proxy's ledger after a short request mix.

Run:  python examples/edge_proxy.py
"""

from repro.devices import WORKSTATION
from repro.sww.proxy import SwwEdgeProxy, build_origin
from repro.workloads import build_travel_blog, build_wikimedia_landscape_page


def main() -> None:
    pages = [build_wikimedia_landscape_page(count=12), build_travel_blog()]
    media_total = sum(p.account.original_media for p in pages)
    proxy = SwwEdgeProxy(build_origin(pages), device=WORKSTATION)

    mix = [
        ("/wiki/search/landscape", True, "capable phone"),
        ("/wiki/search/landscape", False, "legacy browser"),
        ("/blog/ridgeline-hike", True, "capable laptop"),
        ("/wiki/search/landscape", True, "capable tablet"),
        ("/blog/ridgeline-hike", False, "legacy browser"),
    ]
    print("== request mix")
    for path, capable, who in mix:
        response = proxy.handle_request(path, capable)
        form = "prompts" if (b"x-sww-content", b"prompts") in response.headers else "generated media"
        print(f"  {who:15s} GET {path:26s} -> {len(response.body):>7,} B of {form}")

    naive_media = sum(len(proxy.handle_request(p, False).body) for p in list(proxy.server.store.assets))

    stats = proxy.stats
    print("\n== proxy ledger")
    print(f"  upstream (origin -> edge)    : {stats.upstream_bytes:,} B — prompts only")
    print(f"  edge prompt cache            : {stats.prompt_cache_bytes:,} B "
          f"(the same content as media: {media_total:,} B -> "
          f"{media_total / stats.prompt_cache_bytes:.0f}x denser)")
    print(f"  prompt-cache hit rate        : {stats.hit_rate:.0%}")
    print(f"  edge generations             : {stats.generations} items, "
          f"{stats.generation_s:.1f} s, {stats.generation_wh:.2f} Wh")
    print(f"  naive-client media egress    : {naive_media:,} B")
    print("\nThe §2.2 trade, live: storage and backbone stay prompt-sized; the")
    print("last hop to naive clients is media-sized and pays edge generation.")


if __name__ == "__main__":
    main()
