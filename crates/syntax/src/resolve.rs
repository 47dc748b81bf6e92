//! Syntax-directed name resolution (§3.1.2b).
//!
//! "The name resolution scheme is based on the syntax of names. A name is
//! said to be resolved if an authority server for the name is located.
//! Given a name, the resolution procedure will either return the authority
//! server or a server that may be able to resolve the name properly. If
//! the recipient is located within the local region then his server can be
//! located directly from other servers in the region. Otherwise, the
//! message is transmitted to one of the servers in the recipient region
//! where the name resolution process continues."

use std::collections::BTreeMap;

use lems_core::directory::ServerView;
use lems_core::name::MailName;
use lems_core::user::AuthorityList;
use lems_net::graph::NodeId;
use lems_net::topology::RegionId;

/// What one resolution step decided.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// This server is an authority for the name: deliver here.
    LocalAuthority,
    /// The name belongs to this region; its authority servers are known
    /// directly (regional replication).
    RegionalAuthority(AuthorityList),
    /// The name belongs to another region; forward to one of that region's
    /// servers and resolve there.
    ForwardToRegion {
        /// The recipient's region.
        region: RegionId,
        /// Known servers of that region, nearest-first as configured.
        servers: Vec<NodeId>,
    },
    /// The region token does not map to any known region — undeliverable.
    UnknownRegion,
    /// The region is local but no user record matches — undeliverable.
    UnknownUser,
}

/// One server's syntax-directed resolver.
///
/// Knowledge model (§2, §3.1.2b): a server is authoritative for the names
/// in its [`ServerView`]; it additionally replicates the authority lists of
/// every user *of its own region* (so local names resolve in one step) and
/// the server roster of every region (so foreign names forward in one
/// step).
#[derive(Clone, Debug)]
pub struct SyntaxResolver {
    server: NodeId,
    region: RegionId,
    view: ServerView,
    region_index: BTreeMap<MailName, AuthorityList>,
    region_servers: BTreeMap<RegionId, Vec<NodeId>>,
}

impl SyntaxResolver {
    /// Builds a resolver for `server` in `region`.
    pub fn new(
        server: NodeId,
        region: RegionId,
        view: ServerView,
        region_index: BTreeMap<MailName, AuthorityList>,
        region_servers: BTreeMap<RegionId, Vec<NodeId>>,
    ) -> Self {
        SyntaxResolver {
            server,
            region,
            view,
            region_index,
            region_servers,
        }
    }

    /// The server this resolver runs on.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// The server's region.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// This server's authoritative view (mutable, for reconfiguration).
    pub fn view_mut(&mut self) -> &mut ServerView {
        &mut self.view
    }

    /// This server's authoritative view.
    pub fn view(&self) -> &ServerView {
        &self.view
    }

    /// Adds or updates a local-region user's authority list (regional
    /// replication maintenance).
    pub fn upsert_regional(&mut self, name: MailName, authorities: AuthorityList) {
        self.region_index.insert(name, authorities);
    }

    /// Drops a local-region user (delete/migrate-away).
    pub fn remove_regional(&mut self, name: &MailName) -> Option<AuthorityList> {
        self.region_index.remove(name)
    }

    /// Updates the roster of servers for a region (add/delete server
    /// reconfiguration: "some changes are made to tables in all servers",
    /// §3.1.3c).
    pub fn set_region_servers(&mut self, region: RegionId, servers: Vec<NodeId>) {
        self.region_servers.insert(region, servers);
    }

    /// Resolves `name` one step, per §3.1.2b.
    ///
    /// Authority is tested before the region: the §3.1.1 assignment may
    /// place a user's authority server outside their home region, and that
    /// server must deposit locally rather than forward the message back to
    /// the home region (which would route it straight back here).
    pub fn resolve(&self, name: &MailName) -> Resolution {
        let Some(target_region) = self.view.region_of_name(name.region()) else {
            return Resolution::UnknownRegion;
        };
        if self.view.is_authority_for(name) {
            return Resolution::LocalAuthority;
        }
        if target_region == self.region {
            match self.region_index.get(name) {
                Some(list) => Resolution::RegionalAuthority(list.clone()),
                None => Resolution::UnknownUser,
            }
        } else {
            match self.region_servers.get(&target_region) {
                Some(servers) if !servers.is_empty() => Resolution::ForwardToRegion {
                    region: target_region,
                    servers: servers.clone(),
                },
                _ => Resolution::UnknownRegion,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lems_core::directory::Directory;

    fn name(s: &str) -> MailName {
        s.parse().unwrap()
    }

    fn resolver() -> SyntaxResolver {
        let mut dir = Directory::new();
        dir.map_region("east", RegionId(0));
        dir.map_region("west", RegionId(1));
        dir.register(
            name("east.h1.alice"),
            NodeId(10),
            AuthorityList::new(vec![NodeId(0), NodeId(1)]),
        )
        .unwrap();
        // Bob's authorities exclude server 0, so server 0 must resolve him
        // through the regional index.
        dir.register(
            name("east.h2.bob"),
            NodeId(11),
            AuthorityList::new(vec![NodeId(1)]),
        )
        .unwrap();
        let views = dir.partition(&[NodeId(0), NodeId(1)]);

        let mut region_index = BTreeMap::new();
        for rec in dir.iter() {
            region_index.insert(rec.name.clone(), rec.authorities.clone());
        }
        let mut region_servers = BTreeMap::new();
        region_servers.insert(RegionId(0), vec![NodeId(0), NodeId(1)]);
        region_servers.insert(RegionId(1), vec![NodeId(5)]);

        SyntaxResolver::new(
            NodeId(0),
            RegionId(0),
            views[&NodeId(0)].clone(),
            region_index,
            region_servers,
        )
    }

    #[test]
    fn local_authority_resolves_immediately() {
        let r = resolver();
        assert_eq!(
            r.resolve(&name("east.h1.alice")),
            Resolution::LocalAuthority
        );
    }

    #[test]
    fn regional_name_resolves_to_authority_list() {
        let r = resolver();
        match r.resolve(&name("east.h2.bob")) {
            Resolution::RegionalAuthority(list) => {
                assert_eq!(list.primary(), NodeId(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_region_forwards() {
        let r = resolver();
        match r.resolve(&name("west.h9.carol")) {
            Resolution::ForwardToRegion { region, servers } => {
                assert_eq!(region, RegionId(1));
                assert_eq!(servers, vec![NodeId(5)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_region_and_user() {
        let r = resolver();
        assert_eq!(r.resolve(&name("mars.h1.zed")), Resolution::UnknownRegion);
        assert_eq!(r.resolve(&name("east.h1.nobody")), Resolution::UnknownUser);
    }

    #[test]
    fn authority_outside_the_home_region_resolves_locally() {
        // Erin is homed in `west` but assigned to server 0 in `east`.
        let mut dir = Directory::new();
        dir.map_region("east", RegionId(0));
        dir.map_region("west", RegionId(1));
        dir.register(
            name("west.h5.erin"),
            NodeId(15),
            AuthorityList::new(vec![NodeId(0)]),
        )
        .unwrap();
        let views = dir.partition(&[NodeId(0), NodeId(5)]);
        let mut region_servers = BTreeMap::new();
        region_servers.insert(RegionId(0), vec![NodeId(0)]);
        region_servers.insert(RegionId(1), vec![NodeId(5)]);
        let west_index: BTreeMap<MailName, AuthorityList> = dir
            .iter()
            .map(|rec| (rec.name.clone(), rec.authorities.clone()))
            .collect();

        let east = SyntaxResolver::new(
            NodeId(0),
            RegionId(0),
            views[&NodeId(0)].clone(),
            BTreeMap::new(),
            region_servers.clone(),
        );
        assert_eq!(
            east.resolve(&name("west.h5.erin")),
            Resolution::LocalAuthority,
            "the foreign-region authority deposits instead of forwarding home"
        );

        let west = SyntaxResolver::new(
            NodeId(5),
            RegionId(1),
            views[&NodeId(5)].clone(),
            west_index,
            region_servers,
        );
        match west.resolve(&name("west.h5.erin")) {
            Resolution::RegionalAuthority(list) => assert_eq!(list.primary(), NodeId(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reconfiguration_updates_tables() {
        let mut r = resolver();
        r.upsert_regional(name("east.h3.dave"), AuthorityList::new(vec![NodeId(1)]));
        assert!(matches!(
            r.resolve(&name("east.h3.dave")),
            Resolution::RegionalAuthority(_)
        ));
        r.remove_regional(&name("east.h3.dave"));
        assert_eq!(r.resolve(&name("east.h3.dave")), Resolution::UnknownUser);

        r.set_region_servers(RegionId(1), vec![NodeId(6), NodeId(7)]);
        match r.resolve(&name("west.h9.carol")) {
            Resolution::ForwardToRegion { servers, .. } => {
                assert_eq!(servers, vec![NodeId(6), NodeId(7)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
