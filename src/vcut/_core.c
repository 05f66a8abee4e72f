/* Compiled Dinic solver for the vertex-split flow networks of vcut.maxflow.
 *
 * Semantic twin of vcut._pyflow.solve; see that module for the contract:
 * solve(num_nodes, tails, heads, caps, s, t, limit) returns
 * (value, reach, True), or (limit, None, False) once the flow reaches the
 * limit (None: no limit).  Arc i runs tails[i] -> heads[i] with capacity
 * caps[i].  The residual arcs leaving a node are stored contiguously
 * (CSR), in the order _pyflow scans them: its out-arcs by increasing i,
 * then the reverses of its in-arcs by increasing i.
 *
 * Every input is checked before the network is built: node ids must lie
 * in [0, num_nodes), s != t, and capacities in [0, 2^63).  A flow value
 * past 2^63 - 1 stops the solve.  Violations raise ValueError or
 * OverflowError. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* The residual network and the Dinic work arrays.  Slot p is one residual
 * arc: to[p] its head, cap[p] its capacity left, rev[p] its reverse slot.
 * The arcs leaving u are the slots start[u] .. start[u + 1] - 1. */
typedef struct {
    int n, s, t;
    int *start, *to, *rev, *level, *it, *queue, *path;
    long long *cap;
} Network;

/* Copies the items of `fast` (a PySequence_Fast) into `out`, each checked to
 * lie in [0, max].  Returns -1 with an exception set on a bad item. */
static int
read_items(PyObject *fast, long long *out, long long max, const char *what)
{
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < len; i++) {
        long long v = PyLong_AsLongLong(items[i]);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v > max) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %lld is outside [0, %lld]",
                         what, i, v, max);
            return -1;
        }
        out[i] = v;
    }
    return 0;
}

/* Residual BFS levels from s (-1 when unreached).  Stops as soon as `stop`
 * is labelled and returns 1; with `stop` = -1, or when it is not reached,
 * the search is complete and returns 0.  Nodes left unlabelled by a stop
 * lie at t's depth or deeper, so no augmenting path of the phase uses
 * them. */
static int
bfs(Network *g, int stop)
{
    int head = 0, tail = 1;
    for (int i = 0; i < g->n; i++)
        g->level[i] = -1;
    g->level[g->s] = 0;
    g->queue[0] = g->s;
    while (head < tail) {
        int u = g->queue[head++];
        for (int p = g->start[u]; p < g->start[u + 1]; p++) {
            int v = g->to[p];
            if (g->cap[p] > 0 && g->level[v] < 0) {
                g->level[v] = g->level[u] + 1;
                if (v == stop)
                    return 1;
                g->queue[tail++] = v;
            }
        }
    }
    return 0;
}

/* Dinic's phases until no augmenting path is left (returns 0, g->level
 * then holds the complete residual reach of s), or until the flow reaches
 * `limit` when `capped` (returns 1).  Returns -1 with OverflowError set
 * when the flow value would exceed 64 bits. */
static int
max_flow(Network *g, int capped, long long limit, long long *flow)
{
    *flow = 0;
    /* A limit <= 0 is reached before any augmentation; the complete
     * search from s then gives the reach. */
    while (bfs(g, capped && limit <= 0 ? -1 : g->t)) {
        int depth = 0, u = g->s;
        for (int i = 0; i < g->n; i++)
            g->it[i] = g->start[i];
        /* Blocking flow: repeated walks along current-arc pointers; path
         * holds the slots from s to u. */
        for (;;) {
            if (u == g->t) {
                long long pushed = g->cap[g->path[0]];
                for (int k = 1; k < depth; k++)
                    if (g->cap[g->path[k]] < pushed)
                        pushed = g->cap[g->path[k]];
                if (capped && pushed > limit - *flow)
                    pushed = limit - *flow;
                if (pushed > LLONG_MAX - *flow) {
                    PyErr_SetString(PyExc_OverflowError, "flow value exceeds 64 bits");
                    return -1;
                }
                for (int k = 0; k < depth; k++) {
                    g->cap[g->path[k]] -= pushed;
                    g->cap[g->rev[g->path[k]]] += pushed;
                }
                *flow += pushed;
                if (capped && *flow >= limit)
                    return 1;
                /* Retreat to just before the first saturated arc. */
                int cut_at = 0;
                while (g->cap[g->path[cut_at]] > 0)
                    cut_at++;
                depth = cut_at;
                u = depth ? g->to[g->path[depth - 1]] : g->s;
                continue;
            }
            int p = g->it[u], end = g->start[u + 1], want = g->level[u] + 1;
            while (p < end && !(g->cap[p] > 0 && g->level[g->to[p]] == want))
                p++;
            g->it[u] = p;
            if (p < end) {
                g->path[depth++] = p;
                u = g->to[p];
            } else {
                g->level[u] = -1;
                if (depth == 0)
                    break;
                depth--;
                u = depth ? g->to[g->path[depth - 1]] : g->s;
                g->it[u]++;
            }
        }
    }
    return 0;
}

PyDoc_STRVAR(solve_doc,
"solve(num_nodes, tails, heads, caps, s, t, limit)\n--\n\n"
"Max flow from s to t: (value, reach, True), where reach is the residual\n"
"source-reachable node mask, or (limit, None, False) once the flow\n"
"reaches limit (None: no limit).  See vcut._pyflow.");

static PyObject *
solve(PyObject *module, PyObject *args)
{
    Py_ssize_t num_nodes, s, t;
    PyObject *tails_obj, *heads_obj, *caps_obj, *limit_obj;
    PyObject *tails = NULL, *heads = NULL, *caps = NULL, *result = NULL;
    long long *items = NULL, limit = 0, flow;
    Network g = {0};
    (void)module;

    if (!PyArg_ParseTuple(args, "nOOOnnO:solve", &num_nodes, &tails_obj, &heads_obj,
                          &caps_obj, &s, &t, &limit_obj))
        return NULL;
    int capped = limit_obj != Py_None;
    if (capped && (limit = PyLong_AsLongLong(limit_obj)) == -1 && PyErr_Occurred())
        return NULL;
    tails = PySequence_Fast(tails_obj, "tails must be a sequence");
    heads = tails ? PySequence_Fast(heads_obj, "heads must be a sequence") : NULL;
    caps = heads ? PySequence_Fast(caps_obj, "caps must be a sequence") : NULL;
    if (caps == NULL)
        goto done;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(tails);
    if (PySequence_Fast_GET_SIZE(heads) != m || PySequence_Fast_GET_SIZE(caps) != m) {
        PyErr_SetString(PyExc_ValueError, "tails, heads and caps differ in length");
        goto done;
    }
    if (num_nodes < 1 || num_nodes > INT_MAX / 8 || m > INT_MAX / 8) {
        PyErr_Format(PyExc_ValueError, "network of %zd nodes and %zd arcs is empty or too large",
                     num_nodes, m);
        goto done;
    }
    if (s < 0 || s >= num_nodes || t < 0 || t >= num_nodes || s == t) {
        PyErr_Format(PyExc_ValueError, "terminals s = %zd, t = %zd on %zd nodes",
                     s, t, num_nodes);
        goto done;
    }
    int n = (int)num_nodes;
    items = PyMem_New(long long, 3 * m);
    g.cap = PyMem_New(long long, 2 * m);
    g.to = PyMem_New(int, 4 * m + 5 * n + 1);
    if (items == NULL || g.cap == NULL || g.to == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    long long *tail = items, *head = items + m, *cap = items + 2 * m;
    if (read_items(tails, tail, n - 1, "tails") < 0
            || read_items(heads, head, n - 1, "heads") < 0
            || read_items(caps, cap, LLONG_MAX, "caps") < 0)
        goto done;
    g.n = n;
    g.s = (int)s;
    g.t = (int)t;
    g.rev = g.to + 2 * m;
    g.start = g.rev + 2 * m;
    g.level = g.start + n + 1;
    g.it = g.level + n;
    g.queue = g.it + n;
    g.path = g.queue + n;

    /* Counting sort of the residual arcs by tail, it[u] being the next free
     * slot of u: the out-arcs first, then the reverse arcs, each by
     * increasing i.  cap[i] is replaced by the slot of arc i. */
    for (int u = 0; u <= n; u++)
        g.start[u] = 0;
    for (Py_ssize_t k = 0; k < 2 * m; k++)
        g.start[items[k] + 1]++;
    for (int u = 0; u < n; u++) {
        g.start[u + 1] += g.start[u];
        g.it[u] = g.start[u];
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        int p = g.it[tail[i]]++;
        g.to[p] = (int)head[i];
        g.cap[p] = cap[i];
        cap[i] = p;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        int p = (int)cap[i], q = g.it[head[i]]++;
        g.to[q] = (int)tail[i];
        g.cap[q] = 0;
        g.rev[p] = q;
        g.rev[q] = p;
    }

    int stopped = max_flow(&g, capped, limit, &flow);
    if (stopped < 0)
        goto done;
    if (stopped) {
        result = Py_BuildValue("(OOO)", limit_obj, Py_None, Py_False);
        goto done;
    }
    PyObject *reach = PyBytes_FromStringAndSize(NULL, n);
    if (reach == NULL)
        goto done;
    char *mask = PyBytes_AS_STRING(reach);
    for (int i = 0; i < n; i++)
        mask[i] = g.level[i] >= 0;
    result = Py_BuildValue("(LNO)", flow, reach, Py_True);
done:
    Py_XDECREF(tails);
    Py_XDECREF(heads);
    Py_XDECREF(caps);
    PyMem_Free(items);
    PyMem_Free(g.cap);
    PyMem_Free(g.to);
    return result;
}

static PyMethodDef core_methods[] = {
    {"solve", solve, METH_VARARGS, solve_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "vcut._core",
    "Compiled Dinic solver; semantic twin of vcut._pyflow.", -1, core_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *module = PyModule_Create(&core_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND_NAME", "c") < 0)
        Py_CLEAR(module);
    return module;
}
