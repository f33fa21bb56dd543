#include "app/apps.h"

#include <stdexcept>

namespace sinan {

namespace {

TierSpec
MakeTier(const std::string& name, int conc_per_replica, int replicas,
         double init_cpu, double max_cpu, double base_rss_mb,
         double base_cache_mb, double cache_per_req_mb = 0.0)
{
    TierSpec t;
    t.name = name;
    t.concurrency_per_replica = conc_per_replica;
    t.replicas = replicas;
    t.init_cpu = init_cpu;
    t.min_cpu = 0.4;
    t.max_cpu = max_cpu;
    t.base_rss_mb = base_rss_mb;
    t.base_cache_mb = base_cache_mb;
    t.cache_per_req_mb = cache_per_req_mb;
    return t;
}

} // namespace

Application
BuildSocialNetwork(const SocialOptions& opts)
{
    Application app;
    app.name = "social-network";
    app.qos_ms = 500.0;
    app.burst_bias_type = 0;    // bursts are ComposePost-heavy
    app.burst_bias_extra = 0.05; // mild skew: Cons's headroom absorbs it

    // The 28 tiers of Figure 2 / Figure 12's legend.
    app.tiers = {
        MakeTier("nginx", 64, 8, 3.0, 12.0, 110, 20),
        MakeTier("composePost", 32, 4, 2.0, 10.0, 100, 20),
        MakeTier("compPost-redis", 64, 2, 0.6, 4.0, 90, 120),
        MakeTier("uniqueID", 32, 2, 0.6, 4.0, 60, 10),
        MakeTier("urlShorten", 32, 2, 0.6, 4.0, 70, 10),
        MakeTier("userMention", 32, 2, 0.6, 4.0, 70, 10),
        MakeTier("text", 32, 2, 1.0, 6.0, 80, 10),
        MakeTier("textFilter", 32, 4, 3.0, 24.0, 400, 50),
        MakeTier("media", 32, 2, 1.0, 6.0, 90, 10),
        MakeTier("mediaFilter", 32, 4, 4.0, 32.0, 900, 80),
        MakeTier("user", 32, 2, 1.0, 6.0, 80, 10),
        MakeTier("user-memc", 64, 2, 0.6, 4.0, 60, 180),
        MakeTier("user-mongodb", 64, 2, 1.0, 8.0, 150, 250, 0.002),
        MakeTier("postStore", 32, 4, 2.0, 10.0, 90, 20),
        MakeTier("postStore-memc", 64, 2, 1.0, 6.0, 60, 220),
        MakeTier("postStore-mongodb", 64, 2, 2.0, 12.0, 170, 300, 0.004),
        MakeTier("userTimeline", 32, 2, 1.0, 8.0, 90, 20),
        MakeTier("userTl-redis", 64, 2, 1.0, 6.0, 120, 150),
        MakeTier("userTl-mongodb", 64, 2, 1.0, 8.0, 150, 260, 0.003),
        MakeTier("homeTimeline", 32, 4, 2.0, 10.0, 90, 20),
        MakeTier("homeTl-redis", 64, 2, 1.5, 8.0, 130, 170),
        MakeTier("writeHomeTimeline", 32, 2, 1.0, 6.0, 80, 10),
        MakeTier("writeHomeTl-rabbitmq", 64, 2, 0.6, 4.0, 90, 20),
        MakeTier("writeUserTimeline", 32, 2, 1.0, 6.0, 80, 10),
        MakeTier("writeUserTl-rabbitmq", 64, 2, 0.6, 4.0, 90, 20),
        MakeTier("graph", 32, 2, 1.0, 6.0, 80, 10),
        MakeTier("graph-redis", 64, 2, 1.0, 6.0, 130, 160),
        MakeTier("graph-mongodb", 64, 2, 1.0, 8.0, 150, 260, 0.002),
    };

    // Burst-capacity floors: the ML content filters run 40-60 ms shards
    // that need around a core each even when average utilization is low;
    // a cgroup quota below that stretches single-request latency past
    // QoS regardless of load (the frontend is sized similarly).
    app.tiers[app.TierIndex("nginx")].min_cpu = 0.6;
    app.tiers[app.TierIndex("composePost")].min_cpu = 0.6;
    app.tiers[app.TierIndex("textFilter")].min_cpu = 2.0;
    app.tiers[app.TierIndex("mediaFilter")].min_cpu = 3.0;
    app.tiers[app.TierIndex("homeTimeline")].min_cpu = 0.6;
    app.tiers[app.TierIndex("postStore")].min_cpu = 0.6;

    // Sec. 5.6.2 pathology: social-graph Redis persists its log every
    // minute, forking and copying all written memory while serving nothing.
    if (opts.redis_log_sync) {
        TierSpec& redis = app.tiers[app.TierIndex("graph-redis")];
        redis.log_sync = true;
        redis.log_sync_period_s = 60.0;
        redis.written_mb_per_req = 0.12;
        redis.stall_s_per_mb = 0.025;
        redis.stall_base_s = 0.08;
    }

    auto tix = [&](const char* n) {
        const int i = app.TierIndex(n);
        if (i < 0)
            throw std::logic_error(std::string("social: unknown tier ") + n);
        return i;
    };
    auto node = [&](const char* n, double demand_ms, double hit_prob = 0.0,
                    std::vector<CallNode> children = {}) {
        CallNode c;
        c.tier = tix(n);
        c.demand_s = demand_ms / 1000.0;
        c.hit_prob = hit_prob;
        c.children = std::move(children);
        return c;
    };
    auto async_node = [&](const char* n, double demand_ms,
                          std::vector<CallNode> children = {}) {
        CallNode c = node(n, demand_ms, 0.0, std::move(children));
        c.async = true;
        return c;
    };
    // The ML content filters run data-parallel inference: a coordinator
    // stage fans out shards to the same tier, bounding latency while
    // keeping total CPU demand high (CNN/SVM classifiers of Sec. 2.2.2).
    auto sharded = [&](const char* n, double coord_ms, int shards,
                       double shard_ms) {
        std::vector<CallNode> kids;
        for (int i = 0; i < shards; ++i)
            kids.push_back(node(n, shard_ms));
        return node(n, coord_ms, 0.0, std::move(kids));
    };

    // AES post encryption (retraining scenario 3 of Sec. 5.4).
    const double aes_compose_ms = opts.aes_encryption ? 6.0 : 0.0;
    const double aes_store_ms = opts.aes_encryption ? 4.0 : 0.0;

    // ComposePost (Figure 2 write path). Roughly half the posts carry
    // media; hit_prob on "media" models text-only posts that skip the
    // image pipeline.
    RequestType compose;
    compose.name = "ComposePost";
    compose.weight = 5.0;
    compose.root = node("nginx", 3.0, 0.0, {
        node("composePost", 6.0 + aes_compose_ms, 0.0, {
            node("compPost-redis", 1.0),
            node("uniqueID", 1.0),
            node("urlShorten", 2.0),
            node("userMention", 2.0, 0.0, {
                node("user-memc", 0.6, 0.8, {node("user-mongodb", 4.0)}),
            }),
            node("text", 3.0, 0.0,
                 {sharded("textFilter", 2.0, 3, 40.0)}),
            node("media", 3.0, 0.5,
                 {sharded("mediaFilter", 2.0, 4, 60.0)}),
            node("user", 2.0, 0.0, {
                node("user-memc", 0.6, 0.8, {node("user-mongodb", 4.0)}),
            }),
            node("graph", 2.0, 0.0, {
                node("graph-redis", 1.0, 0.9, {node("graph-mongodb", 4.0)}),
            }),
            node("postStore", 4.0 + aes_store_ms, 0.0, {
                node("postStore-memc", 1.0),
                node("postStore-mongodb", 5.0),
            }),
            node("writeUserTimeline", 3.0, 0.0, {
                node("userTl-redis", 1.5),
                node("userTl-mongodb", 4.0),
                async_node("writeUserTl-rabbitmq", 1.0,
                           {node("userTl-redis", 2.0)}),
            }),
            node("writeHomeTimeline", 3.0, 0.0, {
                node("homeTl-redis", 2.0),
                async_node("writeHomeTl-rabbitmq", 1.0,
                           {node("homeTl-redis", 6.0)}),
            }),
        }),
    });

    // ReadHomeTimeline (Figure 2 read path; the bulk of the traffic).
    RequestType read_home;
    read_home.name = "ReadHomeTimeline";
    read_home.weight = 80.0;
    read_home.root = node("nginx", 3.0, 0.0, {
        node("homeTimeline", 8.0, 0.0, {
            node("homeTl-redis", 6.0),
            node("postStore", 6.0, 0.0, {
                node("postStore-memc", 3.0, 0.85,
                     {node("postStore-mongodb", 8.0)}),
            }),
            node("user", 2.0, 0.0, {
                node("user-memc", 1.0, 0.9, {node("user-mongodb", 4.0)}),
            }),
        }),
    });

    // ReadUserTimeline.
    RequestType read_user;
    read_user.name = "ReadUserTimeline";
    read_user.weight = 15.0;
    read_user.root = node("nginx", 3.0, 0.0, {
        node("userTimeline", 6.0, 0.0, {
            node("userTl-redis", 4.0, 0.7, {node("userTl-mongodb", 8.0)}),
            node("postStore", 6.0, 0.0, {
                node("postStore-memc", 3.0, 0.85,
                     {node("postStore-mongodb", 8.0)}),
            }),
            node("user", 2.0, 0.0, {
                node("user-memc", 1.0, 0.9, {node("user-mongodb", 4.0)}),
            }),
        }),
    });

    app.request_types = {compose, read_home, read_user};
    return app;
}

void
SetRequestMix(Application& app, const std::vector<double>& weights)
{
    if (weights.size() != app.request_types.size())
        throw std::invalid_argument("SetRequestMix: weight count mismatch");
    double total = 0.0;
    for (const double w : weights) {
        if (w < 0.0)
            throw std::invalid_argument("SetRequestMix: negative weight");
        total += w;
    }
    if (total <= 0.0)
        throw std::invalid_argument("SetRequestMix: all weights are zero");
    for (size_t i = 0; i < weights.size(); ++i)
        app.request_types[i].weight = weights[i];
}

std::vector<std::vector<double>>
SocialNetworkMixes()
{
    return {
        {5.0, 80.0, 15.0},  // W0 (training mix)
        {10.0, 80.0, 10.0}, // W1
        {1.0, 90.0, 9.0},   // W2
        {5.0, 70.0, 25.0},  // W3
    };
}

} // namespace sinan
